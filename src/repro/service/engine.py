"""The multi-session tuning engine: one WFIT core, many clients.

The paper's §6 prototype is *middleware*: it sits between live clients and
the database, intercepts SQL, and lets any DBA pull recommendations and
push feedback at any time. :class:`TuningEngine` packages the library that
way for concurrent traffic:

* **Priority-scheduled ingest** — clients :meth:`~TuningEngine.submit`
  statements into the priority-classed queues of
  :class:`~repro.service.scheduler.IngestScheduler`; a single writer
  drains them in micro-batches (``batch_size`` statements per batch)
  through the one shared :class:`~repro.core.wfit.WFIT` instance. Batch
  formation is deterministic — ``(priority rank, arrival seq)`` order —
  so a uniform-priority engine drains in exact submission order,
  bit-identical to the pre-scheduler FIFO. Per-class queue bounds give
  typed backpressure (:class:`~repro.service.scheduler.QueueFull`)
  instead of unbounded growth, and foreground (``interactive`` /
  ``normal``) batches always form before ``background`` ones, which
  drain one statement at a time so a flood never occupies the writer
  for a full batch while interactive work waits.
  :meth:`~TuningEngine.pump` is the deterministic synchronous drain
  (what tests and the replay CLI use); :meth:`~TuningEngine.start` runs
  the same loop on a background thread, which paces its background
  slices.
* **Shared caches** — every session's statements flow through one
  :class:`~repro.optimizer.whatif.WhatIfOptimizer`, so overlapping
  workloads pay for each plan optimization once
  (:meth:`~repro.optimizer.whatif.WhatIfOptimizer.cache_stats` exposes the
  hit rates; ``benchmarks/bench_service.py`` measures the win).
* **Session routing** — a client that submits statements becomes a
  session with its own default priority class and counters; votes and
  DBA materialization actions are routed from any client to the shared
  core, and the WAL records the acting client with each one.
* **totWork accounting, recommended and realized** — the engine accounts
  the §3.1 metric twice: :attr:`~TuningEngine.total_work` under
  *immediate adoption* (every recommendation takes effect the moment it
  is produced — the autonomous-WFIT series), and
  :attr:`~TuningEngine.realized_total_work` under the configurations the
  DBA *actually* materialized (:meth:`~TuningEngine.create_index` /
  :meth:`~TuningEngine.drop_index` / :meth:`~TuningEngine.adopt`), so a
  lagging DBA's cost shows up honestly (the Figure 11 experiment, now
  reported live by :meth:`~TuningEngine.metrics`). A statement's
  realized cost is charged under the materialized set in effect at the
  *next* statement's analysis (deferred finalization): a DBA who adopts
  between the two — zero lag — is charged exactly the recommended cost,
  which is what makes the two series provably equal at lag 0.
  Checkpoint/restore preserves both series.
* **Durable acknowledgements** — with a write-ahead log attached
  (:class:`repro.service.wal.Durability`), every acknowledged operation
  (``submit``, ``submit_many``, ``vote``, ``create_index``,
  ``drop_index``, ``adopt``) is durable when its call returns. The record
  is appended in the critical section that applies the effect, and the
  call waits for its group-committed fsync only after leaving it, so the
  writer analyzes a statement while its submitter waits for the disk.
  Readers and the writer may therefore see a statement or vote whose call
  has not returned yet; such an operation survives a crash only if its
  record reached disk. A call whose fsync fails raises, its effect may
  already be visible, and every later write raises
  :class:`repro.service.wal.WalError`.
* **One write path per WAL record kind** — only this module builds or
  reads record payloads (:mod:`repro.service.wal` frames and syncs them),
  and recovery re-applies each record through the step that logged it
  (:meth:`TuningEngine._replay`). ``vote`` and ``materialize`` records
  carry the acting ``client_id`` and the statement ``position`` they ran
  at.

Checkpoint/restore lives in :mod:`repro.service.snapshot`;
:meth:`TuningEngine.checkpoint` and :meth:`TuningEngine.restore` are the
entry points.
"""

from __future__ import annotations

# reprolint: lock-alias _wakeup=_ingest_lock
# (_wakeup is a Condition constructed over _ingest_lock: entering it IS
# entering the ingest lock, so lock-discipline analysis treats them as one.)

import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import (
    AbstractSet,
    Any,
    Callable,
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .. import obs
from ..core.wfit import WFIT
from ..db.index import Index
from ..optimizer.whatif import WhatIfOptimizer
from ..query.ast import Statement
from ..query.parser import ParseError, parse_statement, to_sql
from .scheduler import (
    BACKGROUND_CLASSES,
    DEFAULT_PRIORITY,
    FOREGROUND_CLASSES,
    PRIORITIES,
    IngestScheduler,
    QueueEntry,
    QueueFull,
    normalize_priority,
)
from .wal import CorruptRecord, WalError, WalRecord

__all__ = [
    "ClientSession",
    "QueueFull",
    "Recommendation",
    "TuningEngine",
]


@dataclass(frozen=True)
class Recommendation:
    """A point-in-time recommendation, diffed against the materialized set."""

    recommended: FrozenSet[Index]
    materialized: FrozenSet[Index]

    @property
    def to_create(self) -> Tuple[Index, ...]:
        return tuple(sorted(self.recommended - self.materialized))

    @property
    def to_drop(self) -> Tuple[Index, ...]:
        return tuple(sorted(self.materialized - self.recommended))

    def statements(self) -> List[str]:
        """DDL the DBA would run to adopt the recommendation."""
        out = [
            f"CREATE INDEX {ix.name} ON {ix.table} ({', '.join(ix.columns)})"
            for ix in self.to_create
        ]
        out.extend(f"DROP INDEX {ix.name}" for ix in self.to_drop)
        return out

    @property
    def is_adopted(self) -> bool:
        return self.recommended == self.materialized


#: Per-client analyze-latency window retained for percentile reporting.
#: A bounded window keeps the engine's footprint flat over unbounded
#: statement streams — an unbounded per-statement append is a memory leak
#: in any long-lived session; p50/p95 then describe recent behavior, which
#: is what an operator watching a live engine wants anyway.
_LATENCY_WINDOW = 4096

#: Statements per *background* micro-batch. The single writer is
#: non-preemptive, so this bounds how long a queued background flood can
#: occupy it before the next foreground arrival gets a turn.
_BACKGROUND_SLICE = 1

#: Seconds the drain thread idles after a background-only drain cycle.
#: Pacing caps the background lane's duty cycle on the non-preemptive
#: writer: with a flood queued, the writer is busy only
#: ``cost/(cost+pacing)`` of the time, so an interactive arrival almost
#: always finds it parked in the wakeup wait and is picked up immediately.
#: Only the threaded drain loop paces — synchronous :meth:`TuningEngine.pump`
#: never sleeps, so replay and tests are unaffected.
_BACKGROUND_PACING = 0.008


class _ClientState:
    """Engine-internal per-client bookkeeping."""

    __slots__ = (
        "client_id",
        "priority",
        "submitted",
        "processed",
        "latencies",
        "recommended_work",
        "realized_work",
    )

    def __init__(self, client_id: str) -> None:
        self.client_id = client_id
        self.priority = DEFAULT_PRIORITY
        self.submitted = 0
        self.processed = 0
        # Wall-clock seconds each of the client's last _LATENCY_WINDOW
        # statements spent inside the shared core (analysis + totWork
        # accounting). Ephemeral observability: not part of checkpoint
        # documents.
        self.latencies: Deque[float] = deque(maxlen=_LATENCY_WINDOW)
        # Per-session query-cost shares of the two totWork series
        # (transition costs are a property of the shared configuration,
        # not of any one session, so they live only in the engine-level
        # totals). ``realized_work`` covers *finalized* statements; the
        # one statement whose realized cost is still pending is projected
        # only into the engine-level realized total.
        self.recommended_work = 0.0
        self.realized_work = 0.0


def _percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (0.0 when empty).

    The nearest-rank definition: the smallest value with at least
    ``fraction`` of the samples at or below it, i.e. index
    ``ceil(fraction · n) − 1``. A single sample is every percentile of
    itself, and p50 of two samples is the lower one — the previous
    ``int(fraction · n)`` truncation read one rank too high (p50 of
    ``[a, b]`` returned ``b``) and only the clamp hid it at p95+.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = math.ceil(fraction * len(ordered)) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]


def _await_durable(logged) -> None:
    """Return once the WAL record ``logged`` names is durable.

    ``logged`` is the ``(wal, seq)`` pair an acknowledged write path
    appended inside its critical section, or None when no WAL is attached.
    Callers wait only after leaving that section, so no engine lock is held
    during the fsync.
    """
    if logged is not None:
        wal, seq = logged
        wal.sync_to(seq)


def _entry_payload(
    client_id: str, statement: Statement, priority: str
) -> Dict[str, object]:
    """The payload of a ``submit`` record or a ``submit_many`` entry (and
    of a checkpoint's pending entry); the default class is not written."""
    item: Dict[str, object] = {
        "client_id": client_id,
        "sql": to_sql(statement, lossless=True),
    }
    if priority != DEFAULT_PRIORITY:
        item["priority"] = priority
    return item


# WAL payload decoding: a missing or mistyped field raises TypeError or
# ValueError, which TuningEngine._replay reports as CorruptRecord.
_REQUIRED = object()


def _typed(value: Any, kind: type, what: str) -> Any:
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise TypeError(f"{what} is {type(value).__name__}, not {kind.__name__}")


def _field(data: Any, name: str, kind: type, default: Any = _REQUIRED) -> Any:
    """``data[name]`` checked to be a ``kind``, or ``default`` when absent."""
    if name in _typed(data, dict, "the payload"):
        return _typed(data[name], kind, f"field {name!r}")
    if default is _REQUIRED:
        raise ValueError(f"missing field {name!r}")
    return default


def _decoded_entry(data: Any) -> Tuple[str, str, str]:
    """``(client_id, sql, priority)`` of a ``submit`` payload or entry."""
    return (
        _field(data, "client_id", str),
        _field(data, "sql", str),
        normalize_priority(_field(data, "priority", str, DEFAULT_PRIORITY)),
    )


def _decoded_index(data: Any) -> Index:
    columns = _field(data, "columns", list)
    return Index(
        _field(data, "table", str),
        tuple(_typed(column, str, "a column") for column in columns),
    )


def _corrupt(
    record: WalRecord, problem: Exception, failure: str = "does not decode"
) -> CorruptRecord:
    return CorruptRecord(
        f"WAL record seq {record.seq} ({record.kind}) {failure}: {problem}",
        record.offset,
        seq=record.seq,
    )


# Process-wide engine instruments on the default registry, built lazily so
# importing the service registers nothing. Counters/histograms aggregate
# across engine instances (a process total); the queue-depth gauges and
# backpressure counter instead come from a per-engine collector so they
# always read the *current* level (and die with the engine).
_ENGINE_INSTRUMENTS: Dict[str, object] = {}


def _engine_instruments() -> Dict[str, object]:
    if not _ENGINE_INSTRUMENTS:
        registry = obs.default_registry()
        _ENGINE_INSTRUMENTS["statements"] = registry.counter(
            "repro_engine_statements_total",
            help="Statements analyzed through the shared core.",
        )
        _ENGINE_INSTRUMENTS["batches"] = registry.counter(
            "repro_engine_batches_total",
            help="Micro-batches drained by the single writer.",
        )
        _ENGINE_INSTRUMENTS["batch_size"] = registry.histogram(
            "repro_engine_batch_size",
            help="Statements per drained micro-batch.",
            buckets=obs.POW2_BUCKETS,
        )
        _ENGINE_INSTRUMENTS["latency"] = {}
    return _ENGINE_INSTRUMENTS


def _latency_histogram(client_id: str):
    instruments = _engine_instruments()
    table: Dict[str, object] = instruments["latency"]  # type: ignore[assignment]
    hist = table.get(client_id)
    if hist is None:
        hist = table[client_id] = obs.default_registry().histogram(
            "repro_engine_statement_seconds",
            help="Per-session in-core statement latency.",
            labels={"client": client_id},
        )
    return hist


class TuningEngine:
    """Multiplexes many client sessions over one shared WFIT core."""

    def __init__(
        self,
        optimizer: WhatIfOptimizer,
        transitions,
        materialized: AbstractSet[Index] = frozenset(),
        batch_size: int = 32,
        queue_limits: Optional[Mapping[str, Optional[int]]] = None,
        **wfit_options,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self._optimizer = optimizer
        self._transitions = transitions
        self._tuner = WFIT(
            optimizer, transitions, initial_config=frozenset(materialized),
            **wfit_options,
        )
        self._materialized: set = set(materialized)  # guarded-by: _pump_lock
        self.batch_size = batch_size

        # Ingest: the priority-classed queues live in the scheduler
        # (internally locked); _ingest_lock orders admission → WAL append
        # → enqueue as one atomic step against other submitters and the
        # single writer. _pump_lock serializes the single writer that may
        # touch the tuner. _wakeup signals the background drain thread.
        # _lifecycle_lock serializes start()/stop() transitions (without
        # it two concurrent start() calls can both pass the
        # thread-is-None check and leak a drain thread). Lock order:
        # _pump_lock → _ingest_lock → IngestScheduler._lock and
        # WriteAheadLog._lock. No engine lock is held while a WAL fsync
        # runs.
        self._scheduler = IngestScheduler(limits=queue_limits)
        # Optional write-ahead log (attached by repro.service.wal.Durability).
        # Submissions log under the ingest lock, votes/materializations under
        # the pump lock — always in the same critical section as the in-memory
        # mutation, so WAL order equals effect order. Batch drains log under
        # both (see _drain_batch). A call that logged waits for its record's
        # fsync only after it leaves that section (_await_durable), so the
        # writer analyzes while a submitter waits for the disk.
        self._wal = None  # guarded-by: _ingest_lock, _pump_lock
        self._ingest_lock = threading.Lock()
        self._pump_lock = threading.RLock()
        self._lifecycle_lock = threading.Lock()
        self._wakeup = threading.Condition(self._ingest_lock)
        self._thread: Optional[threading.Thread] = None  # guarded-by: _lifecycle_lock
        self._stop_flag = threading.Event()

        self._clients: Dict[str, _ClientState] = {}  # guarded-by: _ingest_lock
        self._statements_processed = 0  # guarded-by: _pump_lock
        self._batches_processed = 0  # guarded-by: _pump_lock
        # totWork accounting (§3.1), twice over. The *recommended* series
        # assumes immediate adoption: the configuration the accounting
        # charges costs under, and the cumulative metric.
        self._accounting_config: FrozenSet[Index] = frozenset(materialized)  # guarded-by: _pump_lock
        self._total_work = 0.0  # guarded-by: _pump_lock
        # The *realized* series charges under what the DBA actually
        # materialized. A statement's realized cost is finalized at the
        # next analysis (deferred: the DBA may adopt between the two);
        # _pending_realized holds the one statement still open.
        self._realized_work = 0.0  # guarded-by: _pump_lock
        self._pending_realized: Optional[Tuple[str, Statement]] = None  # guarded-by: _pump_lock
        # Transition costs the DBA paid while _pending_realized was open;
        # they are folded into that statement's finalization as one
        # ``cost + transition`` sum — the exact accumulation grouping
        # run_online uses — so the two accountings agree to the last bit,
        # not merely to rounding.
        self._pending_transition = 0.0  # guarded-by: _pump_lock
        # Adoption-lag bookkeeping: when (in global statement count) the
        # materialized set last changed, and how often it has.
        self._last_adoption_position: Optional[int] = None  # guarded-by: _pump_lock
        self._adoptions = 0  # guarded-by: _pump_lock
        # Observability: construction instant for metrics()["uptime_s"]
        # (monotonic — wall-clock steps must not produce negative uptime),
        # and a weak registry collector for the live queue-depth gauges
        # (summed across engines; dies with the engine).
        self._started_monotonic = time.monotonic()
        obs.default_registry().register_collector(self._collect_obs)

    def _collect_obs(self):
        """Registry collector: queue depths (total and per class) plus the
        cumulative backpressure-rejection count."""
        depths = self._scheduler.depths()
        rejections = self._scheduler.rejections()
        samples = [{
            "name": "repro_engine_queue_depth",
            "type": "gauge",
            "help": "Statements submitted but not yet analyzed.",
            "value": sum(depths.values()),
        }]
        for priority in PRIORITIES:
            samples.append({
                "name": "repro_engine_queue_depth_class",
                "type": "gauge",
                "help": "Statements queued per priority class.",
                "labels": {"priority": priority},
                "value": depths[priority],
            })
        samples.append({
            "name": "repro_engine_backpressure_rejections_total",
            "type": "counter",
            "help": "Submissions rejected by per-class admission control.",
            "value": sum(rejections.values()),
        })
        return samples

    @classmethod
    def for_stats(cls, stats, **options) -> "TuningEngine":
        """Build an engine with the default optimizer/δ over ``stats``."""
        from ..db.transitions import StatsTransitionCosts

        return cls(
            WhatIfOptimizer(stats), StatsTransitionCosts(stats), **options
        )

    # -- shared core introspection -------------------------------------------

    @property
    def tuner(self) -> WFIT:
        return self._tuner

    @property
    def optimizer(self) -> WhatIfOptimizer:
        return self._optimizer

    @property
    def transitions(self):
        return self._transitions

    @property
    def materialized(self) -> FrozenSet[Index]:
        with self._pump_lock:
            return frozenset(self._materialized)

    def close(self) -> None:
        """Stop the drain thread, draining pending *foreground* work first
        (see :meth:`stop`). Statements still queued in the background
        class are dropped from memory; when a WAL is attached they remain
        durable and re-enter the queue on recovery."""
        self.stop(drain=True)

    @property
    def statements_processed(self) -> int:
        with self._pump_lock:
            return self._statements_processed

    @property
    def batches_processed(self) -> int:
        with self._pump_lock:
            return self._batches_processed

    @property
    def total_work(self) -> float:
        """Cumulative totWork under immediate adoption (§3.1).

        The *recommended* series: every recommendation is charged as if
        adopted the instant it was produced — autonomous WFIT. Compare
        :attr:`realized_total_work`.
        """
        with self._pump_lock:
            return self._total_work

    @property
    def realized_total_work(self) -> float:
        """Cumulative totWork under the *actually materialized* configs.

        Query costs are charged under the materialized set in effect at
        the subsequent statement's analysis (deferred finalization), so
        the one still-open statement is projected under the current set
        — reading this property never mutates accounting state.
        Transition costs are charged when the DBA materializes
        (:meth:`create_index` / :meth:`drop_index` / :meth:`adopt`). With
        a DBA who adopts after every statement this equals
        :attr:`total_work` exactly; with a lagging DBA the gap is the
        price of the lag (Figure 11, live).
        """
        with self._pump_lock:
            total = self._realized_work
            if self._pending_realized is not None:
                _, statement = self._pending_realized
                total += (
                    self._optimizer.cost(
                        statement, frozenset(self._materialized)
                    )
                    + self._pending_transition
                )
            return total

    @property
    def queue_depth(self) -> int:
        return self._scheduler.depth()

    @property
    def queue_depths(self) -> Dict[str, int]:
        """Current per-priority-class queue depths."""
        return self._scheduler.depths()

    @property
    def backpressure_rejections(self) -> int:
        """Cumulative submissions rejected by admission control."""
        return sum(self._scheduler.rejections().values())

    # -- session management ----------------------------------------------------

    def _client(self, client_id: str) -> _ClientState:
        # The whole lookup runs under the ingest lock. The previous
        # lock-free fast path read the dict while concurrent submitters
        # could be inserting — safe-ish on CPython today, but exactly the
        # kind of convention R3 exists to make explicit rather than lucky.
        with self._ingest_lock:
            return self._client_locked(client_id)

    def _client_locked(self, client_id: str) -> _ClientState:  # holds: _ingest_lock
        state = self._clients.get(client_id)
        if state is None:
            state = self._clients[client_id] = _ClientState(client_id)
        return state

    def session(
        self, client_id: str = "default", priority: Optional[str] = None
    ) -> "ClientSession":
        """A handle bound to ``client_id`` (created on first use).

        ``priority`` sets (or updates) the session's default class —
        every subsequent :meth:`submit` without an explicit priority
        inherits it. Omitted, an existing session keeps its class and a
        new one defaults to ``"normal"``.
        """
        resolved = None if priority is None else normalize_priority(priority)
        with self._ingest_lock:
            state = self._client_locked(client_id)
            if resolved is not None:
                state.priority = resolved
        return ClientSession(self, client_id)

    def attach_wal(self, wal) -> None:
        """Attach a :class:`repro.service.wal.WriteAheadLog` to the ingest
        path (or detach with ``None``).

        Both locks are taken so neither an in-flight submit nor the
        single writer can observe a half-attached log; from the next
        ingest-path operation on, every mutation is logged before it is
        applied. Prefer :meth:`repro.service.wal.Durability.attach`,
        which also manages sequence continuation and torn-tail repair.
        """
        with self._pump_lock:
            with self._ingest_lock:
                self._wal = wal

    # -- ingest ---------------------------------------------------------------

    def _parse_and_bind(self, statement: Union[str, Statement]) -> Statement:
        """``statement`` parsed (SQL text) or as given (an AST), with every
        referenced table and column bound against the optimizer's
        statistics and schema: an unknown one raises
        :class:`~repro.db.schema.SchemaError` before anything is admitted,
        logged or enqueued.

        The WAL and checkpoints hold ``to_sql(parsed, lossless=True)``,
        which parses back to ``parsed`` for every parsed statement. An AST
        it does not reproduce (a string literal with a quote, or one shaped
        like a timestamp, which parses as a number) raises
        :class:`~repro.query.parser.ParseError` here: recovery would
        otherwise fail to parse it, or analyze another statement.
        """
        if isinstance(statement, str):
            parsed = parse_statement(statement)
        else:
            parsed = statement
            try:
                logged = parse_statement(to_sql(parsed, lossless=True))
            except ParseError:
                logged = None
            if logged != parsed:
                raise ParseError(
                    f"statement has no SQL text that parses back to it: "
                    f"{parsed!r}"
                )
        self._optimizer.stats.bind(parsed)
        return parsed

    def submit(
        self,
        client_id: str,
        statement: Union[str, Statement],
        priority: Optional[str] = None,
    ) -> Statement:
        """Enqueue one statement for ``client_id``; returns the parsed AST.

        ``priority`` overrides the session's default class for this one
        statement. This is :meth:`submit_many`'s step, logged as one flat
        ``submit`` record. A statement naming a table or column the
        optimizer's statistics lack raises
        :class:`~repro.db.schema.SchemaError`, and one over its class's
        queue bound :class:`QueueFull`, before anything is logged or
        enqueued: recovery replays exactly the admitted stream, and a
        rejected submission leaves no session behind. The statement is
        analyzed at the next :meth:`pump` (or by the drain thread under
        :meth:`start`), possibly before the call returns once its record
        is durable.
        """
        return self._submit([(client_id, statement, priority)], "submit")[0][1]

    def submit_many(
        self,
        entries: Iterable[
            Union[
                Tuple[str, Union[str, Statement]],
                Tuple[str, Union[str, Statement], Optional[str]],
            ]
        ],
    ) -> int:
        """Enqueue a batch of ``(client_id, statement[, priority])`` tuples.

        The whole batch is parsed first, then admitted and enqueued under
        a *single* queue-lock acquisition with one drain-thread
        ``notify`` — submission order is preserved, and an N-statement
        batch costs one lock round-trip instead of N (the per-statement
        locking showed up directly in ingest throughput under concurrent
        submitters). Admission is all-or-nothing: if any class's bound
        would be exceeded, :class:`QueueFull` is raised and *nothing* —
        no WAL record, no queue entry, no session — happens for any
        element; the same holds when any element names an unknown table
        or column (:class:`~repro.db.schema.SchemaError`, raised while
        parsing). With a WAL attached the batch is one record, and the
        call returns once it is durable, as :meth:`submit` does.
        """
        return len(self._submit(entries, "submit_many"))

    def _submit(
        self, entries: Iterable[tuple], kind: str
    ) -> List[Tuple[str, Statement, str]]:
        """Parse → admit → log → enqueue, the one ingest step: parse and
        bind every entry, then admit, log one ``kind`` record and enqueue
        under one ingest-lock acquisition, then wait for the fsync. Returns
        the enqueued ``(client_id, statement, priority)`` entries."""
        batch: List[Tuple[str, Statement, Optional[str]]] = []
        for entry in entries:
            if len(entry) == 3:
                client_id, statement, priority = entry
            else:
                client_id, statement = entry
                priority = None
            parsed = self._parse_and_bind(statement)
            if priority is not None:
                priority = normalize_priority(priority)
            batch.append((client_id, parsed, priority))
        resolved: List[Tuple[str, Statement, str]] = []
        if not batch:
            return resolved
        logged = None
        with self._ingest_lock:
            counts: Dict[str, int] = {}
            for client_id, parsed, priority in batch:
                if priority is None:  # the client's default class
                    state = self._clients.get(client_id)
                    priority = DEFAULT_PRIORITY if state is None else state.priority
                resolved.append((client_id, parsed, priority))
                counts[priority] = counts.get(priority, 0) + 1
            for priority in sorted(counts):
                self._scheduler.admit(priority, counts[priority])
            if self._wal is not None:
                items = [_entry_payload(*entry) for entry in resolved]
                payload = items[0] if kind == "submit" else {"entries": items}
                logged = self._wal, self._wal.append(kind, payload)
            for client_id, parsed, priority in resolved:
                self._scheduler.push(priority, client_id, parsed)
                self._client_locked(client_id).submitted += 1
            self._wakeup.notify()
        _await_durable(logged)
        return resolved

    def _analyze(self, client_id: str, statement: Statement) -> None:  # holds: _pump_lock
        """Run one statement through the shared core (writer lock held)."""
        started = time.perf_counter()
        with obs.span("engine.analyze"):
            self._finalize_realized()
            recommendation = self._tuner.analyze_statement(statement)
            transition = 0.0
            if recommendation != self._accounting_config:
                transition = self._transitions.delta(
                    self._accounting_config, recommendation
                )
                self._accounting_config = recommendation
            cost = self._optimizer.cost(statement, recommendation)
            # One ``cost + transition`` sum per statement — the same
            # accumulation grouping as the realized series and
            # run_online, so cross-checks are bit-exact.
            self._total_work += cost + transition
            client = self._client(client_id)
            client.recommended_work += cost
            self._pending_realized = (client_id, statement)
        elapsed = time.perf_counter() - started
        self._statements_processed += 1
        client.processed += 1
        client.latencies.append(elapsed)
        if obs.state.enabled:
            _engine_instruments()["statements"].inc()  # type: ignore[union-attr]
            _latency_histogram(client_id).observe(elapsed)  # type: ignore[union-attr]

    def _finalize_realized(self) -> None:  # holds: _pump_lock
        """Charge the open statement's realized cost under the current
        materialized set (deferred so an adoption between two statements
        lands before the earlier one is priced — run_online's convention
        of charging the adoption-point statement post-adoption)."""
        pending = self._pending_realized
        if pending is None:
            return
        client_id, statement = pending
        self._pending_realized = None
        cost = self._optimizer.cost(statement, frozenset(self._materialized))
        self._realized_work += cost + self._pending_transition
        self._pending_transition = 0.0
        self._client(client_id).realized_work += cost

    def _charge_realized_transition(self, delta: float) -> None:  # holds: _pump_lock
        """Account a DBA-paid transition cost in the realized series.

        Folded into the open statement's finalization when one is
        pending (preserving run_online's per-statement sum grouping);
        charged directly when the DBA acts before any statement is open.
        """
        if self._pending_realized is None:
            self._realized_work += delta
        else:
            self._pending_transition += delta

    def _process_entries(self, entries: List[QueueEntry]) -> None:  # holds: _pump_lock
        """Analyze one formed micro-batch through the shared core."""
        for entry in entries:
            self._analyze(entry.client_id, entry.statement)
        self._batches_processed += 1
        if obs.state.enabled:
            instruments = _engine_instruments()
            instruments["batches"].inc()  # type: ignore[union-attr]
            instruments["batch_size"].observe(len(entries))  # type: ignore[union-attr]

    def _drain_batch(self, budget: int, classes: Tuple[str, ...]) -> int:  # holds: _pump_lock
        """Form and analyze one micro-batch from ``classes``.

        Batch formation and the WAL ``drain`` record happen under the
        ingest lock, so no concurrent submit can land between the pop
        and the record — the log's drain order is exactly the effect
        order, which is what replay depends on. Drain records are only
        written once a non-default priority has ever been enqueued: an
        all-``normal`` history drains FIFO, replay can reproduce it from
        the submissions alone, and the log stays byte-identical to the
        pre-scheduler format. The writer does not wait for a drain
        record's fsync: the next acknowledged record's fsync covers it,
        and a drain record lost in a crash only leaves its statements
        queued for the recovered engine to drain again. For the same
        reason a log that takes no more records (an fsync failed, or it
        was closed) makes the writer skip the record, not drop the batch:
        no later record could become durable, so recovery is unchanged.
        Recovery replays a drain record through this method (logging
        nothing: no WAL is attached then). Logging drain records for every
        history measured slower on ``durable-dba`` (README, Recovery).
        """
        with self._ingest_lock:
            entries = self._scheduler.take(budget, classes)
            if (
                entries
                and self._wal is not None
                and self._scheduler.priorities_seen
            ):
                try:
                    self._wal.append(
                        "drain",
                        {
                            "position": self._statements_processed,
                            "count": len(entries),
                            "classes": list(classes),
                        },
                    )
                except WalError:
                    pass
        if not entries:
            return 0
        self._process_entries(entries)
        return len(entries)

    def pump(
        self,
        limit: Optional[int] = None,
        classes: Optional[Sequence[str]] = None,
    ) -> int:
        """Drain pending submissions synchronously; returns the count.

        The single-writer micro-batching loop: forms batches of up to
        ``batch_size`` statements from the *foreground* classes
        (``interactive`` before ``normal``, FIFO within each), and only
        when no foreground work is queued drains the ``background`` class
        one statement per batch.
        ``classes`` restricts which priority classes are eligible at all
        (None = every class). With no ``limit`` it drains the whole
        (eligible) queue. Deterministic: batch formation is a pure
        function of queue content, so tests (and the replay CLI) can
        single-step the engine; with every submission in one class this
        is exact submission order.
        """
        if classes is None:
            eligible = PRIORITIES
        else:
            eligible = tuple(normalize_priority(c) for c in classes)
        foreground = tuple(c for c in FOREGROUND_CLASSES if c in eligible)
        background = tuple(c for c in BACKGROUND_CLASSES if c in eligible)
        processed = 0
        with self._pump_lock:
            while limit is None or processed < limit:
                budget = self.batch_size
                if limit is not None:
                    budget = min(budget, limit - processed)
                count = 0
                if foreground:
                    count = self._drain_batch(budget, foreground)
                if count == 0 and background:
                    count = self._drain_batch(
                        min(budget, _BACKGROUND_SLICE), background
                    )
                if count == 0:
                    break
                processed += count
        return processed

    # -- background drain ------------------------------------------------------

    def start(self) -> None:
        """Start the background single-writer drain thread.

        The thread drains foreground micro-batches with :meth:`pump`;
        with no foreground queued it drains one background statement,
        then parks for the 8 ms pacing interval; with nothing queued at
        all it waits, untimed, for a submit or :meth:`stop` to notify.
        The pacing wait also ends as soon as a submit notifies, and both
        waits re-check the queues (and the stop flag) under the wakeup
        condition's lock — the lock every submit and ``stop()`` notifies
        under — so a submit that lands after the pumps found nothing is
        never slept through. Lifecycle transitions are serialized by an
        internal lock: two threads racing into ``start()`` cannot both
        pass the already-running check (one starts the drain thread, the
        other raises), and a ``stop()`` concurrent with a ``start()``
        observes either the fully-started or the not-yet-started engine,
        never a half-built one.
        """
        with self._lifecycle_lock:
            if self._thread is not None:
                raise RuntimeError("engine is already running")
            self._stop_flag.clear()

            def _loop() -> None:
                while not self._stop_flag.is_set():
                    if self.pump(self.batch_size, classes=FOREGROUND_CLASSES):
                        continue
                    paced = self.pump(
                        _BACKGROUND_SLICE, classes=BACKGROUND_CLASSES
                    )
                    with self._wakeup:
                        # Only foreground work cuts the pacing short.
                        if paced:
                            queued = self._scheduler.depth(FOREGROUND_CLASSES)
                        else:
                            queued = self._scheduler.depth()
                        if queued == 0 and not self._stop_flag.is_set():
                            self._wakeup.wait(
                                timeout=_BACKGROUND_PACING if paced else None
                            )

            thread = threading.Thread(
                target=_loop, name="tuning-engine-drain", daemon=True
            )
            thread.start()
            # Publish only after a successful start so a failed Thread
            # construction can never leave a stale handle behind.
            self._thread = thread

    def stop(self, drain: bool = True) -> None:
        """Stop the background thread (idempotent); optionally drain.

        ``drain=True`` drains the **foreground classes only**
        (``interactive`` and ``normal``): shutdown must not be held
        hostage by a queued background flood. Background statements stay
        queued in memory (and durable in the WAL, when attached); drain
        them explicitly with ``pump(classes=("background",))`` — or
        ``pump()`` — before stopping if that is what you want.
        Safe to call concurrently with :meth:`start` (the lifecycle lock
        orders the two: stop-then-start leaves the engine running,
        start-then-stop leaves it stopped) and with other ``stop`` calls —
        exactly one caller joins the thread.
        """
        with self._lifecycle_lock:
            thread = self._thread
            if thread is not None:
                self._stop_flag.set()
                with self._wakeup:
                    self._wakeup.notify_all()
                thread.join()
                self._thread = None
        if drain:
            self.pump(classes=FOREGROUND_CLASSES)

    @property
    def running(self) -> bool:
        with self._lifecycle_lock:
            return self._thread is not None

    # -- recommendations and feedback routing ---------------------------------

    def recommendation(self, client_id: str = "default") -> Recommendation:
        """The current shared recommendation.

        Every client reads the same one; ``client_id`` is accepted for
        symmetry with the write calls but not recorded, and reading does
        not make the caller a session.
        """
        with self._pump_lock:
            return Recommendation(
                recommended=self._tuner.recommend(),
                materialized=frozenset(self._materialized),
            )

    def vote(
        self,
        client_id: str,
        f_plus: AbstractSet[Index],
        f_minus: AbstractSet[Index],
    ) -> FrozenSet[Index]:
        """Route explicit DBA votes from ``client_id`` to the shared core.

        With a WAL attached the vote is logged and applied under the
        writer lock, and the call returns once its record is durable;
        readers may see the vote before then.
        """
        with self._pump_lock:
            # Validate before logging: a WAL record for a vote the core
            # then rejects would be replayed by every subsequent recovery
            # and fail there the same way — one bad client call must not
            # leave a durable poison pill (create/drop below follow the
            # same check-then-log order).
            if frozenset(f_plus) & frozenset(f_minus):
                raise ValueError("F+ and F- must be disjoint")
            logged = self._log_action("vote", client_id, {
                "plus": [ix.to_payload() for ix in sorted(f_plus)],
                "minus": [ix.to_payload() for ix in sorted(f_minus)],
            })
            recommendation = self._tuner.feedback(
                frozenset(f_plus), frozenset(f_minus)
            )
        _await_durable(logged)
        return recommendation

    def _log_action(  # holds: _pump_lock
        self, kind: str, client_id: str, payload: Dict[str, object]
    ) -> Optional[Tuple[object, int]]:
        """Append a ``vote`` or ``materialize`` record, stamped with the
        acting ``client_id`` and the statement position the action runs
        at; returns what :func:`_await_durable` waits on (None with no WAL
        attached). Replay pumps to that position before re-applying the
        action, so it lands on the same work-function state."""
        if self._wal is None:
            return None
        payload["client_id"] = client_id
        payload["position"] = self._statements_processed
        return self._wal, self._wal.append(kind, payload)

    def _note_adoption(self) -> None:  # holds: _pump_lock
        self._adoptions += 1
        self._last_adoption_position = self._statements_processed

    def create_index(self, client_id: str, index: Index) -> None:
        """``client_id`` materializes an index; WFIT learns via a +vote.

        The realized totWork series is charged the transition cost of
        building the index here — at the moment the DBA actually paid it.
        """
        self._materialize(client_id, index, create=True)

    def drop_index(self, client_id: str, index: Index) -> None:
        """``client_id`` drops an index; WFIT learns via a −vote."""
        self._materialize(client_id, index, create=False)

    def _materialize(self, client_id: str, index: Index, create: bool) -> None:
        """Create or drop ``index``: check, log, apply, then wait for the
        record's fsync outside the writer lock."""
        with self._pump_lock:
            self._check_materialize(index, create)
            logged = self._log_action("materialize", client_id, {
                "action": "create" if create else "drop",
                "index": index.to_payload(),
            })
            before = frozenset(self._materialized)
            changed = frozenset((index,))
            after = before | changed if create else before - changed
            self._materialized = set(after)
            self._charge_realized_transition(
                self._transitions.delta(before, after)
            )
            self._note_adoption()
            self._tuner.notify_materialized(
                created=changed if create else frozenset(),
                dropped=frozenset() if create else changed,
            )
        _await_durable(logged)

    def _check_materialize(self, index: Index, create: bool) -> None:  # holds: _pump_lock
        """Refuse to create a materialized index or drop one that is not."""
        if (index in self._materialized) == create:
            state = "already" if create else "not"
            raise ValueError(f"{index.name} is {state} materialized")

    def adopt(
        self, client_id: str = "default", *, lease: bool = True
    ) -> Tuple[Tuple[Index, ...], Tuple[Index, ...]]:
        """Adopt the current recommendation wholesale for ``client_id``.

        ``lease=True`` (the default, and the historical behavior) casts
        the lease-renewing implicit feedback of the Figure 11 DBA model:
        positive votes on the adopted set, negative on what it drops.
        ``lease=False`` adopts silently — the immediate-adoption
        (``adopt_period=1``) convention of
        :func:`repro.core.driver.run_online`, which casts no votes.
        The realized totWork series is charged the transition cost
        δ(materialized, recommended) here. With a WAL attached the call
        returns once the adoption's record is durable; readers may see the
        new materialized set before then.
        """
        with self._pump_lock:
            # Adoption is deterministic given the position: the replayed
            # engine recomputes the same recommendation there, so only the
            # action itself needs logging.
            payload: Dict[str, object] = {"action": "adopt"}
            if not lease:
                payload["lease"] = False
            logged = self._log_action("materialize", client_id, payload)
            rec = self._tuner.recommend()
            created = tuple(sorted(rec - self._materialized))
            dropped = tuple(sorted(self._materialized - rec))
            if created or dropped:
                self._charge_realized_transition(
                    self._transitions.delta(frozenset(self._materialized), rec)
                )
                self._note_adoption()
            self._materialized = set(rec)
            if lease:
                self._tuner.feedback(rec, frozenset(dropped))
        _await_durable(logged)
        return created, dropped

    # -- WAL replay ------------------------------------------------------------

    def _replay(self, record: WalRecord) -> None:
        """Re-apply one WAL record past the restored snapshot (no WAL is
        attached during recovery, so nothing is re-logged).

        Submissions re-enter through the ingest step with their recorded
        class (``normal`` when none is named, never the session's current
        default); a drain record re-forms its batch through
        :meth:`_drain_batch`; votes and materializations run once the
        queue is pumped to the position they originally ran at. A payload
        that lacks a field, holds one of the wrong type or SQL that does
        not parse, names an unknown kind or action, or votes for and
        against one index raises :class:`CorruptRecord` with the record's
        seq and byte offset before anything is applied; so does a create
        or drop that contradicts the materialized set at its position,
        after the pump to that position.
        """
        try:
            position, apply = self._decoded(record)
        except (TypeError, ValueError) as exc:
            raise _corrupt(record, exc) from exc
        with self._pump_lock:
            if position is not None:
                self._replay_to(position, record)
            try:
                apply()
            except ParseError as exc:
                # Only a submission's SQL is parsed here, before anything is
                # enqueued, and the engine logs only SQL that parses back.
                raise _corrupt(record, exc) from exc

    def _decoded(
        self, record: WalRecord
    ) -> Tuple[Optional[int], Callable[[], object]]:
        """``record``'s statement position (None for a submission) and the
        call that re-applies it."""
        kind, data = record.kind, record.payload
        if kind in ("submit", "submit_many"):
            items = [data] if kind == "submit" else _field(data, "entries", list)
            entries = [_decoded_entry(item) for item in items]
            return None, partial(self._submit, entries, kind)
        if kind not in ("drain", "vote", "materialize"):
            raise ValueError(f"unknown record kind {kind!r}")
        position = _field(data, "position", int)
        if kind == "drain":
            count = _field(data, "count", int)
            classes = tuple(
                normalize_priority(_typed(name, str, "a class"))
                for name in _field(data, "classes", list)
            )
            return position, partial(self._redrain, record, count, classes)
        client_id = _field(data, "client_id", str)
        if kind == "vote":
            plus = frozenset(map(_decoded_index, _field(data, "plus", list)))
            minus = frozenset(map(_decoded_index, _field(data, "minus", list)))
            if plus & minus:
                raise ValueError("F+ and F- must be disjoint")
            return position, partial(self.vote, client_id, plus, minus)
        action = _field(data, "action", str)
        if action == "adopt":
            lease = _field(data, "lease", bool, True)
            return position, partial(self.adopt, client_id, lease=lease)
        if action not in ("create", "drop"):
            raise ValueError(f"unknown materialize action {action!r}")
        index = _decoded_index(_field(data, "index", dict))
        return position, partial(
            self._rematerialize, record, client_id, index, action == "create"
        )

    def _rematerialize(  # holds: _pump_lock
        self, record: WalRecord, client_id: str, index: Index, create: bool
    ) -> None:
        """Re-apply a create or drop at its position; one that contradicts
        the materialized set there is corrupt, and nothing is applied."""
        try:
            self._check_materialize(index, create)
        except ValueError as exc:
            raise _corrupt(record, exc, "contradicts the engine") from exc
        self._materialize(client_id, index, create)

    def _redrain(  # holds: _pump_lock
        self, record: WalRecord, count: int, classes: Tuple[str, ...]
    ) -> None:
        taken = self._drain_batch(count, classes)
        if taken < count:
            raise WalError(
                f"WAL drain record seq {record.seq} covers {count} "
                f"statements but only {taken} were queued in classes "
                f"{classes!r} — the log is missing submissions"
            )

    def _replay_to(self, position: int, record: WalRecord) -> None:  # holds: _pump_lock
        """Pump to statement ``position`` before ``record``'s action."""
        deficit = position - self._statements_processed
        if deficit < 0:
            raise WalError(
                f"WAL record seq {record.seq} expects statement position "
                f"{position} but the engine is already past it "
                f"({self._statements_processed})"
            )
        # The deficit covers drains the log holds no records for. The
        # engine writes drain records from the first non-default
        # submission on, so every undocumented drain happened while every
        # entry ever queued was "normal", and popped those FIFO. Catch up
        # from the default class only: later re-enqueued higher-class
        # submissions did not exist at those drains.
        if deficit and self.pump(deficit, classes=(DEFAULT_PRIORITY,)) < deficit:
            raise WalError(
                f"WAL record seq {record.seq} expects statement position "
                f"{position} but only {self._statements_processed} "
                "statements are recoverable — the log is missing "
                "submissions (was an fsync dropped?)"
            )

    # -- observability ---------------------------------------------------------

    def metrics(self) -> Dict[str, object]:
        """Aggregate engine metrics plus per-session counters.

        Per-session ``latency_p50_ms`` / ``latency_p95_ms`` are
        *window-relative*: they summarize the client's last 4096 in-core
        statement latencies — analysis plus totWork accounting — not the
        full session history; 0.0 before any statement. Each session also
        reports its ``priority`` class and its finalized query-cost
        shares of the two totWork series (``recommended_work`` /
        ``realized_work``; shared transition costs appear only in the
        engine totals). ``uptime_s`` is seconds since construction
        (monotonic clock). ``queue_depth`` is the total
        submitted-but-unanalyzed backlog, ``queue_depths`` its
        per-priority-class split, and ``backpressure_rejections`` the
        cumulative admission-control rejections (``_by_class`` for the
        split). ``total_work`` / ``realized_total_work`` are the
        recommended (immediate-adoption) and realized (actual-adoption)
        §3.1 series; ``adoption`` summarizes DBA responsiveness —
        ``lag_statements`` is how many statements have been analyzed
        since the materialized set last changed (None before any
        change). The numeric counters are also exported on the
        process-wide :mod:`repro.obs` registry as ``repro_engine_*``
        series.
        """
        # The writer lock first: latency deques are appended to by the
        # single writer under _pump_lock, so snapshotting them requires it
        # (lock order matches pump(): _pump_lock, then _ingest_lock).
        with self._pump_lock:
            with self._ingest_lock:
                sessions = {}
                for client_id, state in sorted(self._clients.items()):
                    samples = list(state.latencies)
                    sessions[client_id] = {
                        "priority": state.priority,
                        "submitted": state.submitted,
                        "processed": state.processed,
                        "latency_p50_ms": _percentile(samples, 0.50) * 1000.0,
                        "latency_p95_ms": _percentile(samples, 0.95) * 1000.0,
                        "recommended_work": state.recommended_work,
                        "realized_work": state.realized_work,
                    }
                queue_depths = self._scheduler.depths()
                rejections = self._scheduler.rejections()
            lag: Optional[int] = None
            if self._last_adoption_position is not None:
                lag = self._statements_processed - self._last_adoption_position
            return {
                "statements_processed": self._statements_processed,
                "batches_processed": self._batches_processed,
                "uptime_s": time.monotonic() - self._started_monotonic,
                "queue_depth": sum(queue_depths.values()),
                "queue_depths": queue_depths,
                "backpressure_rejections": sum(rejections.values()),
                "backpressure_rejections_by_class": rejections,
                "total_work": self._total_work,
                "realized_total_work": self.realized_total_work,
                "adoption": {
                    "changes": self._adoptions,
                    "last_position": self._last_adoption_position,
                    "lag_statements": lag,
                    "feedback_count": self._tuner.feedback_count,
                    "feedback_lag_statements": self._tuner.feedback_lag,
                },
                "materialized": [ix.name for ix in sorted(self._materialized)],
                "recommendation": [
                    ix.name for ix in sorted(self._tuner.recommend())
                ],
                "sessions": sessions,
                "cache": self._optimizer.cache_stats(),
            }

    # -- checkpoint / restore --------------------------------------------------

    def checkpoint(
        self,
        extra: Optional[Dict[str, object]] = None,
        drain: bool = True,
        *,
        snapshot_id: Optional[int] = None,
    ) -> Dict[str, object]:
        """Serialize the full engine state to a versioned JSON document.

        The snapshot is taken between micro-batches, never inside one.
        With ``drain=True`` (the default) submissions pending at entry
        are analyzed first — **every class, background included**: a
        draining checkpoint is the "quiesce everything" operation, and
        leaving the background backlog queued would only move its bytes
        into the document. With ``drain=False`` the checkpoint returns
        without paying for any analysis — either way, whatever remains
        queued at the snapshot point (the whole backlog when not
        draining, or statements submitted concurrently with the drain)
        is serialized into the document's ``"pending"`` list — priority
        classes included — and replayed by :meth:`restore`, so no
        admitted statement is ever dropped from a checkpoint; the
        per-class admission bounds are what keep that list (and the
        document) bounded. ``extra`` is stored verbatim under the
        ``"extra"`` key (the replay CLI stashes trace parameters there).
        ``snapshot_id`` is the durability layer's file number (see
        :meth:`repro.service.wal.Durability.checkpoint`).
        """
        from .snapshot import checkpoint_engine

        with self._pump_lock:
            if drain:
                self.pump()
            return checkpoint_engine(self, extra=extra, snapshot_id=snapshot_id)

    @classmethod
    def restore(
        cls,
        document: Dict[str, object],
        optimizer: WhatIfOptimizer,
        transitions,
    ) -> "TuningEngine":
        """Rebuild an engine from a :meth:`checkpoint` document.

        The optimizer/δ provider must be built over equivalent statistics;
        the restored engine then produces step-identical recommendations
        and totWork from the checkpoint on.
        """
        from .snapshot import restore_engine

        return restore_engine(document, optimizer, transitions)

    @classmethod
    def recover(
        cls,
        directory,
        optimizer: WhatIfOptimizer,
        transitions,
        *,
        io=None,
        engine_options: Optional[Dict[str, object]] = None,
    ) -> Tuple["TuningEngine", Dict[str, object]]:
        """Rebuild an engine from a durability directory (newest usable
        snapshot + WAL tail, see :meth:`repro.service.wal.Durability.recover`);
        returns ``(engine, report)``. Replayed submissions are left queued:
        pump (or attach a fresh WAL via :class:`repro.service.wal.Durability`
        first) to continue.
        """
        from ..ioutil import REAL_IO
        from .wal import Durability

        return Durability.recover(
            directory,
            optimizer,
            transitions,
            io=io if io is not None else REAL_IO,
            engine_options=engine_options,
        )


class ClientSession:
    """A client-facing handle over one engine session.

    Thin by construction: all state lives in the engine; the handle only
    binds a ``client_id``. ``execute`` is the synchronous convenience used
    by single-client callers (submit + drain); concurrent deployments
    submit and let the engine's drain loop do the work.
    """

    def __init__(self, engine: TuningEngine, client_id: str) -> None:
        self._engine = engine
        self._client_id = client_id

    @property
    def engine(self) -> TuningEngine:
        return self._engine

    @property
    def client_id(self) -> str:
        return self._client_id

    @property
    def priority(self) -> str:
        """The session's default priority class."""
        return self._engine._client(self._client_id).priority

    # -- workload --------------------------------------------------------------

    def submit(
        self,
        statement: Union[str, Statement],
        priority: Optional[str] = None,
    ) -> Statement:
        """Enqueue one statement (asynchronous ingest).

        ``priority`` overrides the session's default class for this one
        statement. Raises :class:`~repro.service.scheduler.QueueFull`
        when the class's admission bound is hit.
        """
        return self._engine.submit(self._client_id, statement, priority=priority)

    def execute(self, statement: Union[str, Statement]) -> Statement:
        """Intercept one statement synchronously; returns the AST.

        Equivalent to ``submit`` followed by a full drain — which is what a
        single-client deployment wants. When the engine's background
        thread is running, this still guarantees the statement has been
        analyzed on return.
        """
        parsed = self._engine.submit(self._client_id, statement)
        self._engine.pump()
        return parsed

    def execute_many(
        self, statements: Iterable[Union[str, Statement]]
    ) -> int:
        """Intercept a batch; returns how many statements were analyzed."""
        count = 0
        for statement in statements:
            self.submit(statement)
            count += 1
        self._engine.pump()
        return count

    # -- recommendations / feedback / DBA actions ------------------------------

    def recommendation(self) -> Recommendation:
        return self._engine.recommendation(self._client_id)

    def vote(
        self, f_plus: AbstractSet[Index], f_minus: AbstractSet[Index]
    ) -> FrozenSet[Index]:
        return self._engine.vote(self._client_id, f_plus, f_minus)

    def vote_up(self, *indices: Index) -> FrozenSet[Index]:
        return self._engine.vote(self._client_id, frozenset(indices), frozenset())

    def vote_down(self, *indices: Index) -> FrozenSet[Index]:
        return self._engine.vote(self._client_id, frozenset(), frozenset(indices))

    def create_index(self, index: Index) -> None:
        self._engine.create_index(self._client_id, index)

    def drop_index(self, index: Index) -> None:
        self._engine.drop_index(self._client_id, index)

    def adopt(self, *, lease: bool = True) -> Tuple[Tuple[Index, ...], Tuple[Index, ...]]:
        return self._engine.adopt(self._client_id, lease=lease)

    # -- introspection ---------------------------------------------------------

    @property
    def materialized(self) -> FrozenSet[Index]:
        return self._engine.materialized

    @property
    def statements_processed(self) -> int:
        return self._engine._client(self._client_id).processed
