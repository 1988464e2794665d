"""Thread-safe metrics registry: counters, fixed-bucket histograms, and
collector-backed counters and gauges.

The registry is the numeric half of the telemetry layer (:mod:`repro.obs`):
every instrumented component — the work-function kernels, the what-if
optimizer, WFIT's phases, the tuning engine — records into instruments
obtained from one process-wide :class:`MetricsRegistry` (see
:func:`repro.obs.default_registry`). A level that goes up and down (the
engine's queue depths) is a gauge sample from a collector, read at
snapshot time, so it is always current and dies with its owner. The
registry then exposes the whole state three ways:

* :meth:`MetricsRegistry.snapshot` — a JSON-ready document (schema below),
  what the replay CLI's ``--metrics-out`` embeds and the bench harnesses
  attach per row;
* :meth:`MetricsRegistry.expose_text` — the Prometheus text exposition
  format (`HELP`/`TYPE` comments, cumulative ``le`` histogram buckets),
  rendered from the same snapshot via :func:`text_from_snapshot`;
* :func:`diff_snapshots` — per-section deltas (counters and histograms
  subtract; gauges keep the later value), what ``python -m repro.obs diff``
  and the bench per-row accounting use.

Design constraints, in order:

1. **Never perturb results.** Instruments only ever *observe*; nothing in
   this module is consulted by the tuning algorithms.
2. **Dependency-free and thread-safe.** Stdlib only; every instrument
   guards its mutable state with its own lock (the engine's submitter
   threads, the drain thread, and WFIT's worker pool all record
   concurrently).
3. **Bounded, deterministic output.** Families and label sets are sorted
   at exposition time, so two runs over the same workload produce
   byte-identical text/snapshots (timing-valued histograms aside).

Snapshot schema (``version`` 1)::

    {"version": 1,
     "metrics": {
       "<name>": {"type": "counter"|"gauge",
                  "help": "...",
                  "samples": [{"labels": {...}, "value": <float>}, ...]},
       "<name>": {"type": "histogram",
                  "help": "...",
                  "samples": [{"labels": {...}, "count": <int>,
                               "sum": <float>,
                               "buckets": {"<le>": <cumulative int>, ...,
                                           "+Inf": <count>}}, ...]}}}

Collectors (:meth:`MetricsRegistry.register_collector`) let a component
keep its own fast per-instance counters — e.g. the what-if optimizer's
plain-int cache accounting, incremented on the costing hot path with no
lock — while still appearing in every snapshot: the registry samples the
collector at snapshot time through a weak reference, so dead components
drop out instead of leaking, and same-named samples from live instances
are summed.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
import weakref
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "POW2_BUCKETS",
    "SNAPSHOT_VERSION",
    "diff_snapshots",
    "parse_prometheus_text",
    "text_from_snapshot",
    "validate_snapshot",
]

#: Snapshot document format version.
SNAPSHOT_VERSION = 1

#: Default histogram buckets for durations in seconds: 10µs … 10s, a
#: 1-2.5-5 ladder wide enough for both a single kernel relaxation and a
#: whole engine micro-batch.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Power-of-two buckets for sizes/counts (batch sizes, tracked states):
#: 1 … 2^20, the WFA part-state cap.
POW2_BUCKETS: Tuple[float, ...] = tuple(float(1 << i) for i in range(21))

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Label key tuple: sorted ((name, value), ...).
_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Mapping[str, str]]) -> _LabelKey:
    if not labels:
        return ()
    out = []
    for name in sorted(labels):
        if not _LABEL_NAME_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
        out.append((name, str(labels[name])))
    return tuple(out)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Prometheus-conformant float rendering (ints without the dot)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_le(bound: float) -> str:
    """Bucket-boundary rendering for ``le`` labels (stable dict keys)."""
    return "+Inf" if bound == math.inf else _format_value(bound)


def _labels_text(key: _LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    items = list(key) + list(extra)
    if not items:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in items
    )
    return "{" + body + "}"


class Counter:
    """A monotonically increasing value (resettable only via the registry)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0  # guarded-by: _lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Fixed-bucket histogram (cumulative ``le`` semantics at exposition).

    ``observe(v)`` lands ``v`` in the first bucket whose upper bound is
    ``>= v`` (an implicit ``+Inf`` bucket catches the rest) — identical to
    the Prometheus client contract, so an exact bucket boundary counts in
    the bucket it bounds.
    """

    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly increasing")
        if bounds and bounds[-1] == math.inf:
            bounds = bounds[:-1]  # +Inf is implicit
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf  # guarded-by: _lock
        self._sum = 0.0  # guarded-by: _lock
        self._count = 0  # guarded-by: _lock

    def observe(self, value: float) -> None:
        slot = bisect.bisect_left(self._bounds, float(value))
        with self._lock:
            self._counts[slot] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def cumulative_buckets(self) -> Dict[str, int]:
        """``{formatted le bound: cumulative count}``, ending at ``+Inf``."""
        with self._lock:
            counts = list(self._counts)
        out: Dict[str, int] = {}
        running = 0
        for bound, count in zip(self._bounds, counts):
            running += count
            out[_format_le(bound)] = running
        out["+Inf"] = running + counts[-1]
        return out

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * len(self._counts)
            self._sum = 0.0
            self._count = 0


class _Family:
    """One metric name: its type, help text, and per-label-set children."""

    __slots__ = ("name", "type", "help", "buckets", "children", "lock")

    def __init__(self, name: str, kind: str, help_text: str,
                 buckets: Optional[Tuple[float, ...]] = None) -> None:
        self.name = name
        self.type = kind
        self.help = help_text
        self.buckets = buckets
        self.children: Dict[_LabelKey, object] = {}
        self.lock = threading.Lock()


class MetricsRegistry:
    """Thread-safe instrument factory + exposition surface.

    Instruments are get-or-create: asking twice for the same
    ``(name, labels)`` returns the same object, so components built at
    different times aggregate into one series. Re-registering a name with
    a different type (or a histogram with different buckets) raises — a
    silent type change would corrupt every consumer of the exposition.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}  # guarded-by: _lock
        # Weakly-referenced sample collectors: fn() -> iterable of sample
        # dicts {"name", "type", "help", "labels", "value"}.
        self._collectors: List[object] = []  # guarded-by: _lock

    # -- instrument factories ------------------------------------------------

    def _family(self, name: str, kind: str, help_text: str,
                buckets: Optional[Tuple[float, ...]] = None) -> _Family:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, buckets)
                self._families[name] = family
                return family
        if family.type != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.type}, "
                f"requested {kind}"
            )
        if kind == "histogram" and buckets is not None and family.buckets != buckets:
            raise ValueError(
                f"histogram {name!r} already registered with different buckets"
            )
        return family

    def counter(self, name: str, help: str = "",
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        family = self._family(name, "counter", help)
        key = _label_key(labels)
        with family.lock:
            child = family.children.get(key)
            if child is None:
                child = family.children[key] = Counter()
        return child  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
                  labels: Optional[Mapping[str, str]] = None) -> Histogram:
        bounds = tuple(float(b) for b in buckets)
        family = self._family(name, "histogram", help, bounds)
        key = _label_key(labels)
        with family.lock:
            child = family.children.get(key)
            if child is None:
                child = family.children[key] = Histogram(
                    family.buckets or bounds
                )
        return child  # type: ignore[return-value]

    # -- collectors ----------------------------------------------------------

    def register_collector(self, fn: Callable[[], Iterable[Dict[str, object]]]) -> None:
        """Register a sample source consulted at snapshot time.

        ``fn`` is held weakly (``WeakMethod`` for bound methods), so a
        collector vanishes with its owner — components register a bound
        ``_collect_obs`` method and never need to unregister. Samples with
        the same ``(name, labels)`` from different collectors are summed.
        """
        ref: object
        if hasattr(fn, "__self__"):
            ref = weakref.WeakMethod(fn)  # type: ignore[arg-type]
        else:
            try:
                ref = weakref.ref(fn)
            except TypeError:  # e.g. a plain lambda is weakref-able; others not
                ref = lambda fn=fn: fn  # strong fallback
        with self._lock:
            self._collectors.append(ref)

    def _collected_samples(self) -> List[Dict[str, object]]:
        with self._lock:
            refs = list(self._collectors)
        samples: List[Dict[str, object]] = []
        live: List[object] = []
        for ref in refs:
            fn = ref()
            if fn is None:
                continue  # owner died; prune below
            live.append(ref)
            samples.extend(fn())
        if len(live) != len(refs):
            with self._lock:
                self._collectors = [r for r in self._collectors if r() is not None]
        return samples

    # -- snapshot / exposition ----------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The registry state as a JSON-ready document (schema above)."""
        metrics: Dict[str, Dict[str, object]] = {}
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            with family.lock:
                children = sorted(family.children.items())
            samples: List[Dict[str, object]] = []
            for key, child in children:
                labels = {k: v for k, v in key}
                if family.type == "histogram":
                    hist: Histogram = child  # type: ignore[assignment]
                    samples.append({
                        "labels": labels,
                        "count": hist.count,
                        "sum": hist.sum,
                        "buckets": hist.cumulative_buckets(),
                    })
                else:
                    samples.append({"labels": labels, "value": child.value})
            metrics[name] = {
                "type": family.type,
                "help": family.help,
                "samples": samples,
            }
        # Collector-backed samples (counters/gauges only); summed on
        # (name, labels) collisions across live owners.
        collected: Dict[str, Dict[str, object]] = {}
        for sample in self._collected_samples():
            name = str(sample["name"])
            entry = collected.setdefault(name, {
                "type": str(sample.get("type", "counter")),
                "help": str(sample.get("help", "")),
                "values": {},
            })
            key = _label_key(sample.get("labels"))  # type: ignore[arg-type]
            entry["values"][key] = (  # type: ignore[index]
                entry["values"].get(key, 0.0) + float(sample["value"])  # type: ignore[union-attr]
            )
        for name in sorted(collected):
            entry = collected[name]
            if name in metrics:
                raise ValueError(
                    f"collector metric {name!r} collides with a registered "
                    f"instrument"
                )
            metrics[name] = {
                "type": entry["type"],
                "help": entry["help"],
                "samples": [
                    {"labels": {k: v for k, v in key}, "value": value}
                    for key, value in sorted(entry["values"].items())  # type: ignore[union-attr]
                ],
            }
        return {"version": SNAPSHOT_VERSION, "metrics": metrics}

    def expose_text(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        return text_from_snapshot(self.snapshot())

    def reset(self) -> None:
        """Zero every instrument value (registrations stay intact).

        Cached instrument handles held by instrumented components remain
        valid — only the numbers restart, which is what per-section bench
        accounting and the test suite want.
        """
        with self._lock:
            families = list(self._families.values())
        for family in families:
            with family.lock:
                children = list(family.children.values())
            for child in children:
                child._reset()  # type: ignore[union-attr]


# ---------------------------------------------------------------------------
# Snapshot-document helpers (shared by the registry, the CLI, and CI checks)
# ---------------------------------------------------------------------------

def _bucket_items(buckets: Mapping[str, object]) -> List[Tuple[str, int]]:
    """Histogram bucket entries in ascending bound order.

    Snapshot documents may arrive with lexicographically sorted keys
    (``json.dumps(sort_keys=True)``), so consumers must order buckets by
    the numeric ``le`` bound, never by dict order.
    """
    def _bound(le: str) -> float:
        return math.inf if le == "+Inf" else float(le)

    return [
        (le, int(buckets[le]))
        for le in sorted(buckets, key=_bound)
    ]


def text_from_snapshot(snapshot: Mapping[str, object]) -> str:
    """Render a snapshot document as Prometheus exposition text."""
    lines: List[str] = []
    metrics: Mapping[str, Mapping[str, object]] = snapshot["metrics"]  # type: ignore[assignment]
    for name in sorted(metrics):
        entry = metrics[name]
        kind = str(entry["type"])
        help_text = str(entry.get("help", ""))
        if help_text:
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in entry["samples"]:  # type: ignore[index]
            key = _label_key(sample.get("labels"))
            if kind == "histogram":
                for le, count in _bucket_items(sample["buckets"]):
                    labels = _labels_text(key, extra=[("le", le)])
                    lines.append(f"{name}_bucket{labels} {count}")
                lines.append(
                    f"{name}_sum{_labels_text(key)} "
                    f"{_format_value(float(sample['sum']))}"
                )
                lines.append(
                    f"{name}_count{_labels_text(key)} {int(sample['count'])}"
                )
            else:
                lines.append(
                    f"{name}{_labels_text(key)} "
                    f"{_format_value(float(sample['value']))}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def validate_snapshot(document: Mapping[str, object]) -> None:
    """Raise ``ValueError`` unless ``document`` is a valid snapshot."""
    if not isinstance(document, Mapping):
        raise ValueError("snapshot must be a JSON object")
    if document.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported snapshot version {document.get('version')!r}"
        )
    metrics = document.get("metrics")
    if not isinstance(metrics, Mapping):
        raise ValueError("snapshot lacks a 'metrics' object")
    for name, entry in metrics.items():
        if not _NAME_RE.match(str(name)):
            raise ValueError(f"invalid metric name {name!r}")
        kind = entry.get("type")
        if kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"{name}: unknown metric type {kind!r}")
        samples = entry.get("samples")
        if not isinstance(samples, list):
            raise ValueError(f"{name}: 'samples' must be a list")
        for sample in samples:
            labels = sample.get("labels", {})
            if not isinstance(labels, Mapping):
                raise ValueError(f"{name}: sample labels must be an object")
            for label in labels:
                if not _LABEL_NAME_RE.match(str(label)):
                    raise ValueError(f"{name}: invalid label name {label!r}")
            if kind == "histogram":
                buckets = sample.get("buckets")
                if not isinstance(buckets, Mapping) or "+Inf" not in buckets:
                    raise ValueError(
                        f"{name}: histogram sample needs buckets ending at +Inf"
                    )
                counts = [count for _, count in _bucket_items(buckets)]
                if counts != sorted(counts):
                    raise ValueError(
                        f"{name}: histogram buckets must be cumulative"
                    )
                if int(sample.get("count", -1)) != int(counts[-1]):
                    raise ValueError(
                        f"{name}: histogram count disagrees with +Inf bucket"
                    )
                if "sum" not in sample:
                    raise ValueError(f"{name}: histogram sample lacks 'sum'")
            else:
                if "value" not in sample:
                    raise ValueError(f"{name}: sample lacks 'value'")
                float(sample["value"])


def diff_snapshots(
    before: Mapping[str, object], after: Mapping[str, object]
) -> Dict[str, object]:
    """Per-metric deltas ``after − before`` (a valid snapshot document).

    Counters and histograms subtract (series absent from ``before`` count
    from zero); gauges keep the ``after`` value — a gauge is a level, not
    a flow. Series present only in ``before`` are dropped: the registry
    never removes series, so that only happens across a ``reset()``.
    """
    validate_snapshot(before)
    validate_snapshot(after)

    def _by_key(entry: Mapping[str, Any]) -> Dict[_LabelKey, Any]:
        return {
            _label_key(sample.get("labels")): sample
            for sample in entry["samples"]
        }

    out: Dict[str, Dict[str, object]] = {}
    before_metrics: Mapping[str, Mapping[str, object]] = before["metrics"]  # type: ignore[assignment]
    after_metrics: Mapping[str, Mapping[str, object]] = after["metrics"]  # type: ignore[assignment]
    for name, entry in after_metrics.items():
        kind = str(entry["type"])
        old = before_metrics.get(name)
        old_samples = _by_key(old) if old and old["type"] == kind else {}
        samples: List[Dict[str, object]] = []
        for sample in entry["samples"]:  # type: ignore[index]
            key = _label_key(sample.get("labels"))
            prev = old_samples.get(key)
            labels = {k: v for k, v in key}
            if kind == "histogram":
                prev_buckets = prev["buckets"] if prev else {}
                buckets = {
                    le: int(count) - int(prev_buckets.get(le, 0))
                    for le, count in sample["buckets"].items()
                }
                samples.append({
                    "labels": labels,
                    "count": int(sample["count"]) - (int(prev["count"]) if prev else 0),
                    "sum": float(sample["sum"]) - (float(prev["sum"]) if prev else 0.0),
                    "buckets": buckets,
                })
            elif kind == "gauge":
                samples.append({"labels": labels, "value": float(sample["value"])})
            else:
                samples.append({
                    "labels": labels,
                    "value": float(sample["value"]) - (float(prev["value"]) if prev else 0.0),
                })
        out[name] = {"type": kind, "help": entry.get("help", ""), "samples": samples}
    return {"version": SNAPSHOT_VERSION, "metrics": out}


# ---------------------------------------------------------------------------
# A small Prometheus text-format parser (tests + CI validation)
# ---------------------------------------------------------------------------

_QUOTED = r'"(?:\\.|[^"\\])*"'
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>(?:[^\"}]|" + _QUOTED + r")*)\})?"
    r"\s+(?P<value>[^\s]+)(?:\s+(?P<ts>-?\d+))?$"
)
_LABEL_RE = re.compile(
    r"(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)=(?P<value>" + _QUOTED + ")"
)
#: A whole ``{…}`` label list: comma-separated pairs, trailing comma allowed.
_PAIR = r"[a-zA-Z_][a-zA-Z0-9_]*=" + _QUOTED
_LABELS_RE = re.compile(f"(?:{_PAIR}(?:,{_PAIR})*,?)?")
_ESCAPE_RE = re.compile(r"\\(.)")


def _unescape_label_value(quoted: str) -> str:
    """The value of a quoted label, unescaped in one left-to-right pass."""
    return _ESCAPE_RE.sub(
        lambda m: "\n" if m.group(1) == "n" else m.group(1), quoted[1:-1]
    )


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, object]]:
    """Parse exposition text; raises ``ValueError`` on any malformed line.

    Returns ``{family name: {"type": ..., "help": ..., "samples":
    [(name, labels dict, value), ...]}}``. Validates that every sample
    belongs to a ``TYPE``-declared family (histogram samples may carry the
    ``_bucket``/``_sum``/``_count`` suffixes) and that histogram buckets
    are cumulative.
    """
    families: Dict[str, Dict[str, object]] = {}

    def _family_of(sample_name: str) -> Optional[str]:
        if sample_name in families:
            return sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix):
                base = sample_name[: -len(suffix)]
                if base in families and families[base]["type"] == "histogram":
                    return base
        return None

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3:
                raise ValueError(f"line {lineno}: malformed HELP")
            name = parts[2]
            families.setdefault(
                name, {"type": None, "help": "", "samples": []}
            )["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                raise ValueError(f"line {lineno}: malformed TYPE")
            entry = families.setdefault(
                parts[2], {"type": None, "help": "", "samples": []}
            )
            if entry["type"] is not None:
                raise ValueError(f"line {lineno}: duplicate TYPE for {parts[2]}")
            entry["type"] = parts[3]
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        labels: Dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            if not _LABELS_RE.fullmatch(raw):
                raise ValueError(f"line {lineno}: malformed labels {raw!r}")
            for label in _LABEL_RE.finditer(raw):
                labels[label.group("name")] = _unescape_label_value(
                    label.group("value")
                )
        value_text = match.group("value")
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        else:
            value = float(value_text)  # raises on garbage
        name = match.group("name")
        family = _family_of(name)
        if family is None:
            raise ValueError(f"line {lineno}: sample {name!r} has no TYPE")
        families[family]["samples"].append((name, labels, value))  # type: ignore[union-attr]
    # Histogram invariants: cumulative buckets per label set.
    for name, entry in families.items():
        if entry["type"] != "histogram":
            continue
        series: Dict[_LabelKey, List[Tuple[float, float]]] = {}
        for sample_name, labels, value in entry["samples"]:  # type: ignore[union-attr]
            if not sample_name.endswith("_bucket"):
                continue
            le = labels.get("le")
            if le is None:
                raise ValueError(f"{sample_name}: bucket sample lacks le")
            rest = _label_key({k: v for k, v in labels.items() if k != "le"})
            bound = math.inf if le == "+Inf" else float(le)
            series.setdefault(rest, []).append((bound, value))
        for key, buckets in series.items():
            buckets.sort(key=lambda item: item[0])
            counts = [count for _, count in buckets]
            if counts != sorted(counts):
                raise ValueError(f"{name}: non-cumulative buckets at {key}")
            if not buckets or buckets[-1][0] != math.inf:
                raise ValueError(f"{name}: histogram lacks a +Inf bucket")
    return families
