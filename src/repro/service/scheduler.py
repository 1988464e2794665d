# reprolint: zone=deterministic
"""Priority-classed ingest scheduling for the tuning engine.

The engine's original ingest path treated every session uniformly: one
FIFO deque, unbounded, drained in submission order. That is the wrong
shape for the paper's own premise — a DBA *in the loop* next to
production traffic: an interactive DBA console competing with a bulk
backfill should not wait behind ten thousand queued background
statements, and an unbounded queue is a memory-growth liability under
any misbehaving client. This module factors scheduling out of
:mod:`repro.service.engine` into three pieces:

* **Priority classes** — every submission belongs to one of
  :data:`PRIORITIES` (``interactive`` < ``normal`` < ``background`` in
  drain order). Sessions carry a default class; individual submissions
  can override it.
* **Deterministic batch formation** — :meth:`IngestScheduler.take` pops
  entries in ``(priority rank, arrival seq)`` order, a *pure function*
  of queue content: no clocks, no randomness, no aging. A
  uniform-priority queue therefore drains in exact submission order —
  bit-identical to the pre-scheduler FIFO engine, which is the
  determinism oracle the property tests pin. Recovery relies on it too:
  the engine replays a logged ``drain`` record through the same drain
  step, with the record's count and classes, and pops the same entries.
* **Admission control** — per-class depth bounds
  (:data:`DEFAULT_QUEUE_LIMIT` unless overridden) with typed
  backpressure: :meth:`IngestScheduler.admit` raises :class:`QueueFull`
  *before* anything durable happens, so a rejected submission leaves no
  WAL record and no queue growth — the client retries or sheds load.

The scheduler owns no threads and reads no clocks; all mutable state is
guarded by one internal lock, and the engine composes it under its own
ingest/pump locking (engine lock order: ``_pump_lock`` → ``_ingest_lock``
→ ``IngestScheduler._lock``; the scheduler never calls back into the
engine, so the lock graph stays acyclic).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "BACKGROUND_CLASSES",
    "DEFAULT_PRIORITY",
    "DEFAULT_QUEUE_LIMIT",
    "FOREGROUND_CLASSES",
    "PRIORITIES",
    "IngestScheduler",
    "QueueEntry",
    "QueueFull",
    "normalize_priority",
]

#: Priority classes in drain order: interactive statements always pop
#: before normal ones, normal before background. Within a class, strict
#: arrival order.
PRIORITIES: Tuple[str, ...] = ("interactive", "normal", "background")

#: The class submissions get when neither the session nor the call names
#: one — and the class every pre-scheduler WAL/snapshot record maps to.
DEFAULT_PRIORITY = "normal"

#: Classes drained by foreground micro-batches (and by
#: ``TuningEngine.stop(drain=True)``): a queued background flood must
#: not stall shutdown.
FOREGROUND_CLASSES: Tuple[str, ...] = ("interactive", "normal")

#: Classes drained only when no foreground work is queued.
BACKGROUND_CLASSES: Tuple[str, ...] = ("background",)

#: Default per-class queue bound. Deliberately generous — backpressure
#: exists to stop unbounded growth, not to shape healthy traffic; tune
#: it down per class via the engine's ``queue_limits`` knob.
DEFAULT_QUEUE_LIMIT = 100_000

_PRIORITY_RANK: Dict[str, int] = {
    priority: rank for rank, priority in enumerate(PRIORITIES)
}


def normalize_priority(priority: Optional[str]) -> str:
    """Validate ``priority`` (None means :data:`DEFAULT_PRIORITY`)."""
    if priority is None:
        return DEFAULT_PRIORITY
    if priority not in _PRIORITY_RANK:
        raise ValueError(
            f"unknown priority {priority!r} (expected one of {PRIORITIES})"
        )
    return priority


class QueueFull(RuntimeError):
    """Typed backpressure: a class's queue bound would be exceeded.

    Raised *before* the submission is logged or enqueued — nothing
    durable or in-memory changed, so the caller can retry later, shed
    the work, or resubmit under a different class.
    """

    def __init__(self, priority: str, limit: int, depth: int, requested: int) -> None:
        super().__init__(
            f"{priority} queue is full: depth {depth} + {requested} "
            f"submission(s) would exceed the class limit of {limit}"
        )
        self.priority = priority
        self.limit = limit
        self.depth = depth
        self.requested = requested


@dataclass(frozen=True)
class QueueEntry:
    """One admitted submission.

    ``seq`` is the scheduler-wide arrival number (monotone across all
    classes); the drain order ``(rank(priority), seq)`` is total, so
    batch formation is deterministic given queue content.
    """

    seq: int
    priority: str
    client_id: str
    statement: object


class IngestScheduler:
    """Bounded, priority-classed submission queues.

    Thread-safe; every method is O(class count) outside the entries it
    moves. Not a thread pool: the engine's single writer calls
    :meth:`take`, concurrent submitters call :meth:`admit`/:meth:`push`.
    """

    def __init__(
        self, limits: Optional[Mapping[str, Optional[int]]] = None
    ) -> None:
        self._lock = threading.Lock()
        self._queues: Dict[str, Deque[QueueEntry]] = {  # guarded-by: _lock
            priority: deque() for priority in PRIORITIES
        }
        resolved: Dict[str, Optional[int]] = {
            priority: DEFAULT_QUEUE_LIMIT for priority in PRIORITIES
        }
        for priority, limit in (limits or {}).items():
            key = normalize_priority(priority)
            if limit is not None and limit < 1:
                raise ValueError(
                    f"queue limit for {key!r} must be >= 1 or None, got {limit}"
                )
            resolved[key] = limit
        self._limits = resolved  # immutable after construction
        self._next_seq = 0  # guarded-by: _lock
        self._rejections: Dict[str, int] = {  # guarded-by: _lock
            priority: 0 for priority in PRIORITIES
        }
        # Sticky: flips on the first non-default push and never resets.
        # The engine keys WAL drain-record logging off it — an engine
        # that has only ever seen the default class drains in pure FIFO
        # order, so its log needs no batch-boundary records and stays
        # byte-identical to the pre-scheduler format; replay catches up
        # on those undocumented drains from the default class.
        self._priorities_seen = False  # guarded-by: _lock

    # -- admission -----------------------------------------------------------

    def admit(self, priority: str, count: int = 1) -> None:
        """Check that ``count`` submissions fit the class bound.

        Raises :class:`QueueFull` (and counts the rejection) when they do
        not. Callers that must pair the check atomically with an enqueue
        serialize externally (the engine holds its ingest lock across
        admit → WAL append → push); :meth:`push` re-enforces the bound
        regardless, so an unserialized caller can never oversubscribe.
        """
        priority = normalize_priority(priority)
        with self._lock:
            self._admit_locked(priority, count)

    def _admit_locked(self, priority: str, count: int) -> None:  # holds: _lock
        limit = self._limits[priority]
        if limit is None:
            return
        depth = len(self._queues[priority])
        if depth + count > limit:
            self._rejections[priority] += count
            raise QueueFull(priority, limit, depth, count)

    # -- enqueue / dequeue ---------------------------------------------------

    def push(self, priority: str, client_id: str, statement: object) -> QueueEntry:
        """Admit and enqueue one submission; returns its entry."""
        priority = normalize_priority(priority)
        with self._lock:
            self._admit_locked(priority, 1)
            return self._push_locked(priority, client_id, statement)

    def _push_locked(  # holds: _lock
        self, priority: str, client_id: str, statement: object
    ) -> QueueEntry:
        entry = QueueEntry(self._next_seq, priority, client_id, statement)
        self._next_seq += 1
        self._queues[priority].append(entry)
        if priority != DEFAULT_PRIORITY:
            self._priorities_seen = True
        return entry

    def take(
        self, limit: int, classes: Optional[Sequence[str]] = None
    ) -> List[QueueEntry]:
        """Pop up to ``limit`` entries in ``(priority rank, seq)`` order.

        ``classes`` restricts which queues are eligible (None = all).
        Deterministic: the result is a pure function of queue content —
        every eligible interactive entry pops before any normal one,
        and so on, FIFO within a class.
        """
        if limit < 1:
            return []
        eligible = self._normalize_classes(classes)
        out: List[QueueEntry] = []
        with self._lock:
            for priority in eligible:
                queue = self._queues[priority]
                while queue and len(out) < limit:
                    out.append(queue.popleft())
                if len(out) >= limit:
                    break
        return out

    def _normalize_classes(
        self, classes: Optional[Sequence[str]]
    ) -> Tuple[str, ...]:
        if classes is None:
            return PRIORITIES
        seen = tuple(normalize_priority(priority) for priority in classes)
        # Drain order is by rank regardless of the order callers name
        # the classes in.
        return tuple(sorted(set(seen), key=_PRIORITY_RANK.__getitem__))

    # -- introspection -------------------------------------------------------

    def depth(self, classes: Optional[Sequence[str]] = None) -> int:
        eligible = self._normalize_classes(classes)
        with self._lock:
            return sum(len(self._queues[priority]) for priority in eligible)

    def depths(self) -> Dict[str, int]:
        """Current per-class queue depths (all classes, fixed key order)."""
        with self._lock:
            return {
                priority: len(self._queues[priority])
                for priority in PRIORITIES
            }

    def rejections(self) -> Dict[str, int]:
        """Cumulative per-class admission rejections."""
        with self._lock:
            return dict(self._rejections)

    @property
    def priorities_seen(self) -> bool:
        """Whether any non-default-priority entry was ever pushed."""
        with self._lock:
            return self._priorities_seen

    def entries(self) -> List[QueueEntry]:
        """Every queued entry in arrival (``seq``) order, not popped.

        Checkpoints serialize this: arrival order is what re-submission
        on restore must preserve — per-class relative order survives,
        so the restored scheduler forms the same batches.
        """
        with self._lock:
            merged = [
                entry
                for priority in PRIORITIES
                for entry in self._queues[priority]
            ]
        merged.sort(key=lambda entry: entry.seq)
        return merged
