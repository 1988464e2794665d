"""`repro.obs` — dependency-free telemetry for the tuning pipeline.

The package has two halves sharing one on/off switch:

* **Metrics** (:mod:`repro.obs.registry`): a process-wide
  :class:`~repro.obs.registry.MetricsRegistry` of counters and
  fixed-bucket histograms, plus collector-backed counters and gauges,
  exported as JSON snapshots or Prometheus text.
* **Traces** (:mod:`repro.obs.trace`): nested pipeline spans
  (``with obs.span("wfit.prepare"): ...``) kept in a bounded ring and
  exportable in the Chrome ``trace_event`` format.

Enablement contract
-------------------
Telemetry is **on by default** and controlled by the ``REPRO_OBS``
environment variable at import time — ``REPRO_OBS=0`` (or ``false`` /
``no`` / ``off``) starts the process disabled — plus :func:`enable` /
:func:`disable` at runtime. Instrumented hot paths check the single
module-level :data:`state` flag (one attribute load) and skip all clock
reads, histogram observes and span allocation when it is off; that is the
"near-zero-cost no-op mode" gated at ≤2% overhead by
``benchmarks/perf_gate.py --obs-overhead``.

Telemetry never feeds back into tuning decisions: with obs on or off, and
with any mix of snapshots taken mid-run, recommendations and totWork are
bit-identical (enforced by ``tests/obs/test_determinism.py``).

Typical use::

    from repro import obs

    with obs.span("engine.analyze"):
        ...
    obs.default_registry().counter("repro_wfit_statements_total").inc()
    print(obs.default_registry().expose_text())

``python -m repro.obs`` pretty-prints, diffs and validates saved
snapshots (see :mod:`repro.obs.__main__`).
"""

from __future__ import annotations

import os
from typing import Optional

from .registry import (
    DEFAULT_TIME_BUCKETS,
    POW2_BUCKETS,
    MetricsRegistry,
    diff_snapshots,
    parse_prometheus_text,
    text_from_snapshot,
    validate_snapshot,
)
from .trace import TRACE_RING_DEFAULT, Tracer

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "POW2_BUCKETS",
    "MetricsRegistry",
    "Tracer",
    "default_registry",
    "default_tracer",
    "diff_snapshots",
    "disable",
    "enable",
    "enabled",
    "parse_prometheus_text",
    "span",
    "text_from_snapshot",
    "validate_snapshot",
]

_OBS_ENV = "REPRO_OBS"
_FALSEY = {"0", "false", "no", "off"}


class _ObsState:
    """The single flag hot paths consult (attribute load, no function call)."""

    __slots__ = ("enabled",)

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled


def _env_enabled() -> bool:
    return os.environ.get(_OBS_ENV, "1").strip().lower() not in _FALSEY


#: Shared enablement state. Instrumented modules import this once and test
#: ``state.enabled`` inline on their hot paths.
state = _ObsState(_env_enabled())

_registry = MetricsRegistry()
_tracer = Tracer(ring_size=TRACE_RING_DEFAULT)

# Span durations double as metrics: every closed span observes into this
# family, so phase timing shows up in snapshots without pulling a trace.
_span_seconds = {}


def _on_span_close(span) -> None:
    hist = _span_seconds.get(span.name)
    if hist is None:
        hist = _span_seconds[span.name] = _registry.histogram(
            "repro_span_seconds",
            help="Wall time of pipeline spans by name.",
            labels={"span": span.name},
        )
    hist.observe(span.wall_s)


_tracer.on_close = _on_span_close


def enabled() -> bool:
    """Whether telemetry is currently recording."""
    return state.enabled


def enable() -> None:
    """Turn telemetry on for this process (overrides ``REPRO_OBS=0``)."""
    state.enabled = True


def disable() -> None:
    """Turn telemetry off: instruments stop recording, spans become no-ops.

    Existing registry values are kept (snapshots still render); they just
    stop advancing until :func:`enable`.
    """
    state.enabled = False


def default_registry() -> MetricsRegistry:
    """The process-wide registry all built-in instrumentation records to."""
    return _registry


def default_tracer() -> Tracer:
    """The process-wide tracer behind :func:`span`."""
    return _tracer


def span(name: str):
    """Open a named span on the default tracer (no-op when disabled)."""
    return _tracer.span(name, enabled=state.enabled)
