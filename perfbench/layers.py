"""The traced run: spans around ``repro``'s layer boundaries, from outside.

Timing wrappers are installed over the public entry points of each
``repro`` module -- methods patched on their class, functions patched in
every module that bound them with ``from ... import`` -- and keep spans
in memory while a round runs.  At the end the spans are written as one
JSON file (run id, span id, parent id, name, start, end, plus the
counts the wrappers took), read back, and turned into the per-layer
metrics listed in :data:`PER_LAYER`.  A layer's self time is its spans'
time minus the part their child spans cover.

Serve handlers run on server threads; each handler span is attributed
to the client request whose interval contains it.

End-to-end numbers never come from here: a traced invocation also runs
one untraced round, checks that both rounds produced the same output
digest, and reports the tracing overhead as ``bench.trace_overhead``.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
import uuid
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from common import RoundResult, percentile

#: Experiments that get their own ``analysis.<id>.s`` metric: the ones
#: that take the most time in the suite.
ANALYSIS_IDS = (
    "sched_policies",
    "fig16",
    "observations",
    "census",
    "sched_whatif",
    "faults_scenarios",
    "batch_scaling",
    "calibration",
)
POLICIES = ("fifo", "sjf", "backfill", "priority")
#: The per-layer metrics, in ``BENCHMARK.json`` order, with their units.
PER_LAYER: Dict[str, str] = {
    "trace.open.s": "s",
    "trace.records.s": "s",
    "trace.views.s": "s",
    "core.batch_breakdowns.calls": "count",
    "core.batch_breakdowns.self_s": "s",
    "core.batch_projection.calls": "count",
    "core.batch_projection.self_s": "s",
    "core.sweep.self_s": "s",
    "core.batch_step_times.calls": "count",
    "core.batch_step_times.self_s": "s",
    **{f"analysis.{name}.s": "s" for name in ANALYSIS_IDS},
    "analysis.other.s": "s",
    "runtime.pool_efficiency": "ratio",
    "runtime.cache.load.calls": "count",
    "runtime.cache.load.hits": "count",
    "runtime.cache.load.self_s": "s",
    "runtime.cache.store.calls": "count",
    "runtime.cache.store.self_s": "s",
    "runtime.cache.discard.calls": "count",
    "runtime.fingerprint.self_s": "s",
    **{f"sched.{name}.jobs_per_s": "1/s" for name in POLICIES},
    "sched.select.calls": "count",
    "sched.select.self_s": "s",
    "sched.select.p99_ms": "ms",
    "sched.try_place.calls": "count",
    "sched.try_place.self_s": "s",
    "sched.release.calls": "count",
    "sched.release.self_s": "s",
    "sched.clone.calls": "count",
    "sched.clone.self_s": "s",
    "sched.place_yield": "ratio",
    "sched.predictor.self_s": "s",
    "sched.engine.self_s": "s",
    "sim.simulate_step.calls": "count",
    "sim.simulate_step.self_s": "s",
    "faults.run_scenario.self_s": "s",
    "serve.write.p50_ms": "ms",
    "serve.read.p50_ms": "ms",
    "serve.read.p99_ms": "ms",
    "serve.handle.write.self_s": "s",
    "serve.handle.read.self_s": "s",
    "serve.state.ingest.self_s": "s",
    "serve.state.snapshot.calls": "count",
    "serve.state.snapshot.self_s": "s",
    "serve.serialize.self_s": "s",
    "serve.transport.s": "s",
    "serve.cache_hit_ratio": "ratio",
    "obs.events": "count",
    "bench.calibration_ms": "ms",
    "bench.raw_ops_per_s": "1/s",
    "bench.trace_overhead": "ratio",
}


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        #: ``(span_id, parent_id, name, start, end, thread_id)``.
        self.spans: List[Tuple[int, Optional[int], str, float, float, int]] = []
        self.counters: Dict[str, float] = {}
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # ---- recording -------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> Tuple[int, Optional[int]]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start, end) -> None:
        self._stack().pop()
        self.spans.append((span_id, parent, name, start, end, threading.get_ident()))

    def wrap(self, fn: Callable, name, on_result: Optional[Callable] = None):
        """``fn`` recording one span per call while tracing is enabled.

        ``name`` is a string or a function of the call's arguments;
        ``on_result(tracer, result, seconds)`` takes counts off the
        result.  Generator functions get one span from the call until
        the generator is exhausted.
        """
        tracer = self
        label = name if callable(name) else (lambda *a, **k: name)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    yield from fn(*args, **kwargs)
                    return
                span_name = label(*args, **kwargs)
                start = time.perf_counter()
                inner = fn(*args, **kwargs)
                span_id = next(tracer._ids)
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                try:
                    while True:
                        stack.append(span_id)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            stack.pop()
                        yield item
                finally:
                    tracer.spans.append(
                        (span_id, parent, span_name, start, time.perf_counter(),
                         threading.get_ident())
                    )

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = label(*args, **kwargs)
            span_id, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._close(span_id, parent, span_name, start, end)
            if on_result is not None:
                on_result(tracer, result, end - start)
            return result

        return wrapper

    # ---- patching --------------------------------------------------

    def patch_method(self, cls, attr: str, name, on_result=None) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, (classmethod, staticmethod)):
            patched = type(original)(self.wrap(original.__func__, name, on_result))
        else:
            patched = self.wrap(original, name, on_result)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, patched)

    def patch_function(self, module_name: str, attr: str, name, on_result=None) -> None:
        """Patch a function in its module and wherever it was imported."""
        original = getattr(importlib.import_module(module_name), attr)
        patched = self.wrap(original, name, on_result)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, patched)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def active(self):
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    # ---- output ----------------------------------------------------

    def write(self, path: Path, requests=()) -> None:
        """Write the spans as one JSON file.

        ``requests`` are ``(start, end, is_write)`` client requests made
        on this thread; they become spans, and every root span of
        another thread (a server handler) gets the request that
        contains it as its parent.
        """
        main = threading.get_ident()
        spans = [list(span) for span in self.spans]
        request_spans = []
        for start, end, is_write in requests:
            span_id = next(self._ids)
            name = "client.write" if is_write else "client.read"
            request_spans.append([span_id, None, name, start, end, main])
        ordered = sorted(request_spans, key=lambda span: span[3])
        starts = [span[3] for span in ordered]
        for span in spans:
            if span[1] is None and span[5] != main and ordered:
                index = bisect_right(starts, span[3]) - 1
                if index >= 0 and ordered[index][4] >= span[4]:
                    span[1] = ordered[index][0]
        payload = {
            "run_id": self.run_id,
            "fields": ["run_id", "span_id", "parent_id", "name", "start", "end"],
            "spans": [
                [self.run_id, s[0], s[1], s[2], s[3], s[4]]
                for s in spans + request_spans
            ],
            "counters": self.counters,
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


# ---- what gets patched ----------------------------------------------


def _on_cache_load(tracer: Tracer, result, seconds: float) -> None:
    if result is not None:
        tracer.count("runtime.cache.load.hits")


def _on_schedule(tracer: Tracer, outcome, seconds: float) -> None:
    jobs = len(outcome.outcomes) + len(outcome.rejected)
    tracer.count(f"sched.{outcome.policy}.jobs", jobs)
    tracer.count(f"sched.{outcome.policy}.seconds", seconds)
    tracer.count("sched.segments", sum(len(o.segments) for o in outcome.outcomes))


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics need."""
    import repro.analysis.registry  # noqa: F401  (binds every experiment module)
    import repro.faults  # noqa: F401
    import repro.serve  # noqa: F401
    from repro.runtime.cache import ResultCache
    from repro.sched.fleet import Fleet
    from repro.sched.policies import (
        BackfillPolicy,
        FifoPolicy,
        PriorityPolicy,
        SjfPolicy,
    )
    from repro.sched.predictor import ModelRuntimePredictor
    from repro.serve.server import TraceService
    from repro.serve.state import ShardedState
    from repro.trace.columnar import ColumnarTrace

    tracer.patch_method(ColumnarTrace, "open", "trace.open")
    tracer.patch_method(ColumnarTrace, "iter_records", "trace.records")
    tracer.patch_method(ColumnarTrace, "iter_views", "trace.views")
    for name in ("batch_breakdowns", "batch_step_times"):
        tracer.patch_function("repro.core.population", name, f"core.{name}")
    tracer.patch_function(
        "repro.core.population", "batch_projection_speedups", "core.batch_projection"
    )
    for name in ("sweep_resource", "sweep_all_resources"):
        tracer.patch_function("repro.core.sweep", name, "core.sweep")
    tracer.patch_function(
        "repro.analysis.registry",
        "run_experiment",
        lambda experiment_id, *a, **k: f"analysis.{experiment_id}",
    )
    tracer.patch_method(ResultCache, "load", "runtime.cache.load", _on_cache_load)
    tracer.patch_method(ResultCache, "store", "runtime.cache.store")
    tracer.patch_method(ResultCache, "discard", "runtime.cache.discard")
    for name in ("experiment_fingerprint", "fingerprint"):
        tracer.patch_function("repro.runtime.fingerprint", name, "runtime.fingerprint")
    for cls in (FifoPolicy, SjfPolicy, BackfillPolicy, PriorityPolicy):
        tracer.patch_method(cls, "select", "sched.select")
    for name in ("try_place", "release", "clone"):
        tracer.patch_method(Fleet, name, f"sched.{name}")
    for name in ("batch_duration_hours", "durations"):
        tracer.patch_method(ModelRuntimePredictor, name, "sched.predictor")
    tracer.patch_function(
        "repro.sched.engine", "run_schedule", "sched.engine", _on_schedule
    )
    tracer.patch_function("repro.sim.executor", "simulate_step", "sim.simulate_step")
    tracer.patch_function("repro.faults.scenarios", "run_scenario", "faults.run_scenario")
    tracer.patch_method(
        TraceService,
        "handle",
        lambda self, method, *a, **k: (
            "serve.handle.write" if method == "POST" else "serve.handle.read"
        ),
    )
    tracer.patch_method(TraceService, "_ingest", "serve.serialize")
    tracer.patch_function("repro.serve.server", "serialize_jobs", "serve.serialize")
    tracer.patch_method(ShardedState, "ingest", "serve.state.ingest")
    tracer.patch_method(ShardedState, "snapshot", "serve.state.snapshot")


# ---- metrics from the span file ---------------------------------------


def layer_metrics(span_file: Path, scale: float) -> Dict[str, float]:
    """Per-layer metrics from a span file; times are multiplied by ``scale``."""
    payload = json.loads(span_file.read_text(encoding="utf-8"))
    counters = payload["counters"]
    spans = payload["spans"]
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, span_id, parent, name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    calls: Dict[str, int] = {}
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    durations: Dict[str, List[float]] = {}
    for _, span_id, parent, name, start, end in spans:
        covered = _union_length(children.get(span_id, ()), start, end)
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start - covered)
        durations.setdefault(name, []).append(end - start)

    metrics: Dict[str, float] = {}
    metrics["trace.open.s"] = total.get("trace.open", 0.0) * scale
    metrics["trace.records.s"] = total.get("trace.records", 0.0) * scale
    metrics["trace.views.s"] = total.get("trace.views", 0.0) * scale
    for name in (
        "core.batch_breakdowns",
        "core.batch_projection",
        "core.batch_step_times",
        "sim.simulate_step",
        "runtime.cache.load",
        "runtime.cache.store",
        "sched.select",
        "sched.try_place",
        "sched.release",
        "sched.clone",
        "serve.state.snapshot",
    ):
        metrics[f"{name}.calls"] = calls.get(name, 0)
    for name in (
        "core.batch_breakdowns",
        "core.batch_projection",
        "core.sweep",
        "core.batch_step_times",
        "runtime.cache.load",
        "runtime.cache.store",
        "runtime.fingerprint",
        "sched.select",
        "sched.try_place",
        "sched.release",
        "sched.clone",
        "sched.predictor",
        "sched.engine",
        "sim.simulate_step",
        "faults.run_scenario",
        "serve.handle.write",
        "serve.handle.read",
        "serve.state.ingest",
        "serve.state.snapshot",
        "serve.serialize",
    ):
        metrics[f"{name}.self_s"] = own.get(name, 0.0) * scale
    experiments = {
        name[len("analysis."):]: seconds
        for name, seconds in total.items()
        if name.startswith("analysis.")
    }
    for experiment_id in ANALYSIS_IDS:
        metrics[f"analysis.{experiment_id}.s"] = experiments.get(experiment_id, 0.0) * scale
    metrics["analysis.other.s"] = sum(
        seconds for eid, seconds in experiments.items() if eid not in ANALYSIS_IDS
    ) * scale
    metrics["runtime.cache.load.hits"] = counters.get("runtime.cache.load.hits", 0)
    metrics["runtime.cache.discard.calls"] = calls.get("runtime.cache.discard", 0)
    for policy in POLICIES:
        seconds = counters.get(f"sched.{policy}.seconds", 0.0) * scale
        jobs = counters.get(f"sched.{policy}.jobs", 0)
        metrics[f"sched.{policy}.jobs_per_s"] = jobs / seconds if seconds else 0.0
    selects = durations.get("sched.select", [])
    metrics["sched.select.p99_ms"] = (
        percentile(selects, 0.99) * scale * 1e3 if selects else 0.0
    )
    places = calls.get("sched.try_place", 0)
    metrics["sched.place_yield"] = (
        counters.get("sched.segments", 0) / places if places else 0.0
    )
    handled = total.get("serve.handle.write", 0.0) + total.get("serve.handle.read", 0.0)
    requested = total.get("client.write", 0.0) + total.get("client.read", 0.0)
    metrics["serve.transport.s"] = (requested - handled) * scale if requested else 0.0
    loads = calls.get("runtime.cache.load", 0)
    metrics["serve.cache_hit_ratio"] = (
        metrics["runtime.cache.load.hits"] / loads
        if loads and "serve.handle.read" in calls
        else 0.0
    )
    return metrics


def _union_length(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    covered = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            covered += b - a
            reach = b
    return covered


# ---- the traced invocation ------------------------------------------


class _EventCounter:
    """An obs sink that only counts the events it receives."""

    def __init__(self) -> None:
        self.events = 0

    def emit(self, event) -> None:
        self.events += 1

    def close(self) -> None:
        pass


def _traced_round(module, inputs, cal, span_file: Path, kwargs) -> Tuple[RoundResult, int]:
    """One round with every wrapper installed; writes the span file."""
    from repro.obs import get_obs

    tracer = Tracer()
    install(tracer)
    counter = _EventCounter()
    obs = get_obs()
    obs.sinks.append(counter)
    try:
        result = module.run_round(inputs, cal, tracing=tracer.active, **kwargs)
    finally:
        obs.sinks.remove(counter)
        tracer.uninstall()
    tracer.write(span_file, result.extra.get("marks", ()))
    return result, counter.events


def _forked_round(module_name, inputs, cal, span_file, kwargs):
    """Run a round in a forked child so it starts as cold as its sibling."""
    module = importlib.import_module(module_name)
    if span_file is None:
        return module.run_round(inputs, cal, **kwargs), 0, cal.samples
    return (*_traced_round(module, inputs, cal, span_file, kwargs), cal.samples)


@dataclass
class TracedRun:
    rounds: List[RoundResult]
    metrics: Dict[str, float]
    detail: Dict[str, object]


def traced_run(module, workload: str, inputs, cal, workdir: Path) -> TracedRun:
    """One untraced and one traced round; the per-layer metrics."""
    span_file = workdir / "spans.json"
    untraced = module.run_round(inputs, cal)
    if workload == "report_suite":
        # The traced suite runs in-process (one worker) so every call is
        # seen; its untraced twin for the overhead does the same.  Each
        # runs in a fresh fork of this process so neither inherits the
        # other's warm in-process caches.
        context = get_context("fork")
        runs = []
        for path in (None, span_file):
            with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
                result, events, samples = pool.submit(
                    _forked_round, module.__name__, inputs, cal, path, {"workers": 1}
                ).result()
            cal.samples[:] = sorted(set(cal.samples) | set(samples))
            runs.append((result, events))
        (baseline, _), (traced, events) = runs
    else:
        baseline = untraced
        traced, events = _traced_round(module, inputs, cal, span_file, {})
    scale = cal.reference_s / cal.median_s
    metrics = layer_metrics(span_file, scale)
    metrics["runtime.pool_efficiency"] = untraced.extra.get("pool_efficiency", 0.0)
    writes = [(b - a) for a, b, w in untraced.extra.get("marks", ()) if w]
    reads = [(b - a) for a, b, w in untraced.extra.get("marks", ()) if not w]
    metrics["serve.write.p50_ms"] = percentile(writes, 0.5) * scale * 1e3 if writes else 0.0
    metrics["serve.read.p50_ms"] = percentile(reads, 0.5) * scale * 1e3 if reads else 0.0
    metrics["serve.read.p99_ms"] = percentile(reads, 0.99) * scale * 1e3 if reads else 0.0
    metrics["obs.events"] = events
    metrics["bench.calibration_ms"] = cal.median_s * 1e3
    metrics["bench.raw_ops_per_s"] = untraced.raw_ops_per_s
    metrics["bench.trace_overhead"] = traced.busy_s(cal) / baseline.busy_s(cal) - 1
    ordered = {name: metrics[name] for name in PER_LAYER}
    rounds = [untraced, traced] if workload != "report_suite" else [untraced, baseline, traced]
    detail = {"rounds": len(rounds), "spans": span_file.stat().st_size}
    return TracedRun(rounds=rounds, metrics=ordered, detail=detail)
