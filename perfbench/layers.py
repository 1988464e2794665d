"""The traced run: per-layer time measured from outside the program.

:func:`install` wraps public entry points of each layer where their
callers look them up (``repro.core.wfit.choose_partition``, methods on
their classes, ...). Every wrapped call is a span on a per-thread stack:
its inclusive time goes to its layer, and its parent's *self* time is its
duration minus the time its wrapped children cover. Nothing in ``src/``
changes; the function :func:`install` returns puts every original back.
"""

from __future__ import annotations

import collections
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import repro.core.partitioning as partitioning_module
import repro.core.wfit as wfit_module
import repro.service.engine as engine_module
import repro.service.snapshot as snapshot_module
from repro import obs
from repro.core.wfa import WFA
from repro.ioutil import REAL_IO
from repro.optimizer.whatif import WhatIfOptimizer
from repro.service.engine import TuningEngine
from repro.service.wal import Durability, WriteAheadLog

#: Layer spans whose per-call durations are kept for percentiles.
_PER_CALL = {
    "query.parse", "engine.recommendation", "wal.append", "checkpoint",
}
#: Chrome trace events kept from the benchmark's own spans (most recent).
_TRACE_EVENTS = 20_000


class _Frame:
    __slots__ = ("layer", "start", "children")

    def __init__(self, layer: str, start: float) -> None:
        self.layer = layer
        self.start = start
        self.children = 0.0


class LayerTracer:
    """Inclusive/self time, call counts and per-call samples by layer."""

    def __init__(self) -> None:
        self.inclusive: Dict[str, float] = collections.defaultdict(float)
        self.self_time: Dict[str, float] = collections.defaultdict(float)
        self.calls: Dict[str, int] = collections.defaultdict(int)
        self.samples: Dict[str, List[float]] = collections.defaultdict(list)
        self.counters: Dict[str, float] = collections.defaultdict(float)
        self.events: collections.deque = collections.deque(maxlen=_TRACE_EVENTS)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_layer(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1].layer if stack else None

    def wrap(self, layer: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as a span of ``layer``; ``after(args, result)``
        runs once the span has closed (for counters read off the call)."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = _Frame(layer, time.perf_counter())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame.start
                if stack:
                    stack[-1].children += duration
                with tracer._lock:
                    tracer.inclusive[layer] += duration
                    tracer.self_time[layer] += duration - frame.children
                    tracer.calls[layer] += 1
                    if layer in _PER_CALL:
                        tracer.samples[layer].append(duration)
                    tracer.events.append(
                        (layer, frame.start, duration, threading.get_ident())
                    )
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def chrome_events(self) -> List[Dict[str, object]]:
        return [
            {
                "name": layer, "ph": "X", "pid": 2, "tid": tid,
                "ts": start * 1e6, "dur": duration * 1e6,
                "cat": "perfbench",
            }
            for layer, start, duration, tid in self.events
        ]


def _same_partition(a, b) -> bool:
    return sorted(map(sorted, a)) == sorted(map(sorted, b))


def install(tracer: LayerTracer) -> Callable[[], None]:
    """Wrap every layer's entry points; returns the undo function."""
    patches: List[Tuple[object, str, object]] = []

    def patch(owner, name: str, layer: str, after=None, static=False) -> None:
        original = owner.__dict__[name] if static else getattr(owner, name)
        function = original.__func__ if static else original
        wrapped = tracer.wrap(layer, function, after)
        patches.append((owner, name, original))
        setattr(owner, name, staticmethod(wrapped) if static else wrapped)

    def after_choose(args, parts) -> None:
        # choose_partition(monitored, state_cnt, current_partition, ...):
        # a search that returns a different grouping triggers a repartition.
        if not _same_partition(parts, args[2]):
            tracer.count("repartitions")

    def after_analyze(args, _) -> None:
        tracer.count("tracked_states", args[0].tracked_states)

    def after_fsync(args, _) -> None:
        if tracer.parent_layer() == "wal.append":
            tracer.count("wal_fsyncs")

    def after_checkpoint(args, path) -> None:
        tracer.count("checkpoint_bytes", os.path.getsize(path))

    def after_recover(args, outcome) -> None:
        tracer.count("replayed_records", outcome[1]["wal_replayed"])

    patch(engine_module, "parse_statement", "query.parse")
    patch(WhatIfOptimizer, "statement_ibg", "optimizer.statement_ibg")
    patch(wfit_module, "max_benefit", "ibg.max_benefit")
    patch(wfit_module, "degree_of_interaction", "ibg.doi")
    patch(wfit_module, "top_indices", "candidates.top_indices")
    patch(wfit_module, "choose_partition", "partitioning.choose_partition",
          after_choose)
    patch(partitioning_module, "partition_loss", "partitioning.partition_loss")
    patch(wfit_module.WFIT, "analyze_statement", "wfit.analyze", after_analyze)
    patch(wfit_module.WFIT, "feedback", "wfit.feedback")
    patch(WFA, "prepare_statement", "wfa.prepare")
    patch(WFA, "relax", "wfa.relax")
    patch(TuningEngine, "recommendation", "engine.recommendation")
    patch(WriteAheadLog, "append", "wal.append")
    patch(REAL_IO, "fsync", "io.fsync", after_fsync)
    patch(Durability, "checkpoint", "checkpoint", after_checkpoint)
    patch(Durability, "recover", "recover", after_recover, static=True)
    patch(snapshot_module, "restore_engine", "recover.restore")

    def uninstall() -> None:
        for owner, name, original in reversed(patches):
            if owner is REAL_IO:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    return uninstall


def span_sums() -> Dict[str, float]:
    """The program's own ``repro_span_seconds`` sums, by span name."""
    family = obs.default_registry().snapshot()["metrics"].get(
        "repro_span_seconds", {}
    )
    return {
        sample["labels"]["span"]: float(sample["sum"])
        for sample in family.get("samples", [])
    }


def write_chrome_trace(path: str, tracer: LayerTracer) -> None:
    """The program's spans (pid 1) and the benchmark's layer spans (pid 2)
    as one Chrome ``trace_event`` document."""
    offset = obs.default_tracer().refresh_epoch() * 1e6
    document = obs.default_tracer().export_chrome()
    for event in tracer.chrome_events():
        event["ts"] += offset  # type: ignore[operator]
        document["traceEvents"].append(event)  # type: ignore[union-attr]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle)
