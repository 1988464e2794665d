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
  drain ``background_batch_size`` (default 1) at a time so a flood
  never occupies the writer for a full batch while interactive work
  waits. :meth:`~TuningEngine.pump` is the deterministic synchronous
  drain (what tests and the replay CLI use); :meth:`~TuningEngine.start`
  runs the same loop on a background thread, which additionally runs
  deferred maintenance tasks (:meth:`~TuningEngine.defer`) whenever the
  statement queues are idle.
* **Shared caches** — every session's statements flow through one
  :class:`~repro.optimizer.whatif.WhatIfOptimizer`, so overlapping
  workloads pay for each plan optimization once
  (:meth:`~repro.optimizer.whatif.WhatIfOptimizer.cache_stats` exposes the
  hit rates; ``benchmarks/bench_service.py`` measures the win).
* **Session routing** — each client gets its own audit log and default
  priority class; votes and DBA materialization actions are routed from
  any client to the shared core and recorded against the acting client.
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
from typing import (
    AbstractSet,
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
from ..query.parser import parse_statement, to_sql
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

__all__ = [
    "ClientSession",
    "QueueFull",
    "Recommendation",
    "SessionEvent",
    "TuningEngine",
]


@dataclass(frozen=True)
class SessionEvent:
    """One entry of a client's audit log."""

    kind: str          # "statement" | "vote" | "create" | "drop" | "recommendation"
    detail: str
    position: int      # client statements processed when the event happened


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


#: Default per-client analyze-latency window retained for percentile
#: reporting (override per engine with the ``latency_window`` constructor
#: knob). A bounded window keeps the engine's footprint flat over unbounded
#: statement streams — an unbounded per-statement append is a memory leak
#: in any long-lived session; p50/p95 then describe recent behavior, which
#: is what an operator watching a live engine wants anyway.
_LATENCY_WINDOW = 4096


class _ClientState:
    """Engine-internal per-client bookkeeping."""

    __slots__ = (
        "client_id",
        "priority",
        "submitted",
        "processed",
        "events",
        "latencies",
        "recommended_work",
        "realized_work",
    )

    def __init__(self, client_id: str, latency_window: int) -> None:
        self.client_id = client_id
        self.priority = DEFAULT_PRIORITY
        self.submitted = 0
        self.processed = 0
        self.events: List[SessionEvent] = []
        # Wall-clock seconds each of the client's last ``latency_window``
        # statements spent inside the shared core (analysis + totWork
        # accounting). Ephemeral observability: not part of checkpoint
        # documents.
        self.latencies: Deque[float] = deque(maxlen=latency_window)
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
        _ENGINE_INSTRUMENTS["background_tasks"] = registry.counter(
            "repro_engine_background_tasks_total",
            help="Deferred maintenance tasks run in idle queue windows.",
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
        latency_window: int = _LATENCY_WINDOW,
        background_batch_size: int = 1,
        background_pacing: float = 0.008,
        queue_limits: Optional[Mapping[str, Optional[int]]] = None,
        **wfit_options,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if latency_window < 1:
            raise ValueError("latency_window must be >= 1")
        if background_batch_size < 1:
            raise ValueError("background_batch_size must be >= 1")
        if background_pacing < 0:
            raise ValueError("background_pacing must be >= 0")
        self._optimizer = optimizer
        self._transitions = transitions
        self._tuner = WFIT(
            optimizer, transitions, initial_config=frozenset(materialized),
            **wfit_options,
        )
        self._materialized: set = set(materialized)  # guarded-by: _pump_lock
        self.batch_size = batch_size
        self.latency_window = latency_window
        #: Statements per *background* micro-batch. Deliberately tiny by
        #: default: the single writer is non-preemptive, so this bounds
        #: how long a queued background flood can occupy it before the
        #: next foreground arrival gets a turn.
        self.background_batch_size = background_batch_size
        #: Seconds the drain thread idles after a background-only drain
        #: cycle (0 disables). Pacing caps the background lane's duty
        #: cycle on the non-preemptive writer: with a flood queued, the
        #: writer is busy only ``cost/(cost+pacing)`` of the time, so an
        #: interactive arrival almost always finds it parked in the
        #: wakeup wait and is picked up immediately. Only the threaded
        #: drain loop paces — synchronous :meth:`pump` never sleeps, so
        #: replay and tests are unaffected.
        self.background_pacing = float(background_pacing)

        # Ingest: the priority-classed queues live in the scheduler
        # (internally locked); _ingest_lock orders admission → WAL append
        # → enqueue as one atomic step against other submitters and the
        # single writer. _pump_lock serializes the single writer that may
        # touch the tuner. _wakeup signals the background drain thread.
        # _lifecycle_lock serializes start()/stop() transitions (without
        # it two concurrent start() calls can both pass the
        # thread-is-None check and leak a drain thread). Lock order:
        # _pump_lock → _ingest_lock → IngestScheduler._lock.
        self._scheduler = IngestScheduler(limits=queue_limits)
        # Optional write-ahead log (attached by repro.service.wal.Durability).
        # Submissions log under the ingest lock, votes/materializations under
        # the pump lock — always in the same critical section as the in-memory
        # mutation, so WAL order equals effect order. Batch drains log under
        # both (see _drain_batch).
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
        # Background-task lane accounting (tasks themselves queue in the
        # scheduler).
        self._background_tasks_run = 0  # guarded-by: _pump_lock
        self._background_task_errors = 0  # guarded-by: _pump_lock
        self._last_background_error: Optional[str] = None  # guarded-by: _pump_lock
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

    @property
    def session_ids(self) -> Tuple[str, ...]:
        with self._ingest_lock:
            return tuple(sorted(self._clients))

    # -- session management ----------------------------------------------------

    def _client(self, client_id: str) -> _ClientState:
        # The whole lookup runs under the ingest lock. The previous
        # lock-free fast path read the dict while concurrent submitters
        # could be inserting — safe-ish on CPython today, but exactly the
        # kind of convention R3 exists to make explicit rather than lucky.
        with self._ingest_lock:
            state = self._clients.get(client_id)
            if state is None:
                state = self._clients[client_id] = _ClientState(
                    client_id, self.latency_window
                )
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
        state = self._client(client_id)
        if priority is not None:
            resolved = normalize_priority(priority)
            with self._ingest_lock:
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

    def _log(self, client: _ClientState, kind: str, detail: str) -> None:
        client.events.append(SessionEvent(kind, detail, client.processed))

    def history(self, client_id: str) -> Tuple[SessionEvent, ...]:
        return tuple(self._client(client_id).events)

    # -- ingest ---------------------------------------------------------------

    def submit(
        self,
        client_id: str,
        statement: Union[str, Statement],
        priority: Optional[str] = None,
    ) -> Statement:
        """Enqueue one statement for ``client_id``; returns the parsed AST.

        ``priority`` overrides the session's default class for this one
        statement. Admission control runs *first*: when the class's
        queue bound would be exceeded, :class:`QueueFull` is raised
        before anything is logged or enqueued — the WAL never records a
        submission the engine did not accept, so recovery replays
        exactly the admitted stream. The statement is analyzed at the
        next :meth:`pump` (or by the background drain thread when
        :meth:`start` is active).
        """
        parsed = (
            parse_statement(statement) if isinstance(statement, str) else statement
        )
        client = self._client(client_id)
        with self._ingest_lock:
            resolved = (
                normalize_priority(priority)
                if priority is not None
                else client.priority
            )
            self._scheduler.admit(resolved, 1)
            if self._wal is not None:
                payload: Dict[str, object] = {
                    "client_id": client_id, "sql": to_sql(parsed),
                }
                if resolved != DEFAULT_PRIORITY:
                    payload["priority"] = resolved
                self._wal.append("submit", payload)
            self._scheduler.push(resolved, client_id, parsed)
            client.submitted += 1
            self._wakeup.notify()
        return parsed

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
        no WAL record, no queue entry — happens for any element.
        """
        batch: List[Tuple[_ClientState, str, Statement, Optional[str]]] = []
        for entry in entries:
            if len(entry) == 3:
                client_id, statement, priority = entry  # type: ignore[misc]
            else:
                client_id, statement = entry  # type: ignore[misc]
                priority = None
            parsed = (
                parse_statement(statement)
                if isinstance(statement, str)
                else statement
            )
            if priority is not None:
                priority = normalize_priority(priority)
            # Resolve client states outside the queue lock: _client() takes
            # _ingest_lock itself on first sight of a client.
            batch.append((self._client(client_id), client_id, parsed, priority))
        if not batch:
            return 0
        with self._ingest_lock:
            resolved = [
                (
                    client,
                    client_id,
                    parsed,
                    priority if priority is not None else client.priority,
                )
                for client, client_id, parsed, priority in batch
            ]
            counts: Dict[str, int] = {}
            for _, _, _, priority in resolved:
                counts[priority] = counts.get(priority, 0) + 1
            for priority in sorted(counts):
                self._scheduler.admit(priority, counts[priority])
            if self._wal is not None:
                payload_entries: List[Dict[str, object]] = []
                for _, client_id, parsed, priority in resolved:
                    item: Dict[str, object] = {
                        "client_id": client_id, "sql": to_sql(parsed),
                    }
                    if priority != DEFAULT_PRIORITY:
                        item["priority"] = priority
                    payload_entries.append(item)
                self._wal.append("submit_many", {"entries": payload_entries})
            for client, client_id, parsed, priority in resolved:
                self._scheduler.push(priority, client_id, parsed)
                client.submitted += 1
            self._wakeup.notify()
        return len(batch)

    def defer(self, name: str, fn: Callable[[], object]) -> int:
        """Queue a maintenance callable on the background task lane.

        The task runs — FIFO among deferred tasks — only when every
        statement queue is idle: by the background drain thread between
        polls, or synchronously via :meth:`run_background_tasks`.
        Exceptions are contained and counted
        (``metrics()["background_tasks"]``), never propagated. Returns
        the task's lane sequence number.
        """
        seq = self._scheduler.defer(name, fn)
        with self._wakeup:
            self._wakeup.notify()
        return seq

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
        self._log(client, "statement", to_sql(statement))

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
        pre-scheduler format.
        """
        with self._ingest_lock:
            entries = self._scheduler.take(budget, classes)
            if (
                entries
                and self._wal is not None
                and self._scheduler.priorities_seen
            ):
                self._wal.append(
                    "drain",
                    {
                        "position": self._statements_processed,
                        "count": len(entries),
                        "classes": list(classes),
                    },
                )
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
        when no foreground work is queued forms batches of up to
        ``background_batch_size`` from the ``background`` class.
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
                        min(budget, self.background_batch_size), background
                    )
                if count == 0:
                    break
                processed += count
        return processed

    def _replay_drain(self, count: int, classes: Sequence[str]) -> int:
        """Re-form one WAL-logged micro-batch during recovery.

        Pops exactly the entries the original ``drain`` record covered
        (same class filter, same deterministic order) and analyzes them.
        Returns how many were actually available — the caller
        (:meth:`repro.service.wal.Durability._apply_record`) refuses
        recovery on a shortfall.
        """
        eligible = tuple(normalize_priority(c) for c in classes) or PRIORITIES
        with self._pump_lock:
            with self._ingest_lock:
                entries = self._scheduler.take(count, eligible)
            if entries:
                self._process_entries(entries)
            return len(entries)

    # -- background drain ------------------------------------------------------

    def start(self, poll_interval: float = 0.05) -> None:
        """Start the background single-writer drain thread.

        The thread drains foreground micro-batches with :meth:`pump`;
        with no foreground queued it drains one *paced* background batch
        (see ``background_pacing``: after each background-only cycle it
        parks in the wakeup wait, so a foreground submit interrupts the
        pacing idle instantly — the lost-wakeup race is closed by
        re-checking the foreground depth under the wakeup condition's
        lock, the same lock every submit notifies under). When every
        statement queue is idle it runs at most one deferred background
        task (:meth:`defer`) per poll before sleeping, so maintenance
        work only ever uses idle windows. Lifecycle transitions are
        serialized by an internal lock: two threads racing into
        ``start()`` cannot both pass the already-running check (one
        starts the drain thread, the other raises), and a ``stop()``
        concurrent with a ``start()`` observes either the fully-started
        or the not-yet-started engine, never a half-built one.
        """
        with self._lifecycle_lock:
            if self._thread is not None:
                raise RuntimeError("engine is already running")
            self._stop_flag.clear()

            def _loop() -> None:
                while not self._stop_flag.is_set():
                    if self.pump(self.batch_size, classes=FOREGROUND_CLASSES):
                        continue
                    if self.pump(
                        self.background_batch_size,
                        classes=BACKGROUND_CLASSES,
                    ):
                        if self.background_pacing > 0.0:
                            with self._wakeup:
                                if (
                                    self._scheduler.depth(FOREGROUND_CLASSES)
                                    == 0
                                    and not self._stop_flag.is_set()
                                ):
                                    self._wakeup.wait(
                                        timeout=self.background_pacing
                                    )
                        continue
                    if self.run_background_tasks(limit=1) == 0:
                        with self._wakeup:
                            self._wakeup.wait(timeout=poll_interval)

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

    def run_background_tasks(self, limit: Optional[int] = None) -> int:
        """Run deferred tasks while every statement queue is idle.

        Stops early — returning how many tasks ran — as soon as a
        statement is queued (statement analysis always outranks
        maintenance), the lane is empty, or ``limit`` is reached. Task
        exceptions are contained: counted in
        ``metrics()["background_tasks"]["errors"]`` with the latest
        message retained, so one bad task cannot kill the drain thread.
        """
        run = 0
        with self._pump_lock:
            while limit is None or run < limit:
                if self._scheduler.depth() > 0:
                    break
                task = self._scheduler.take_task()
                if task is None:
                    break
                _, name, fn = task
                with obs.span("engine.background_task"):
                    try:
                        fn()
                    except Exception as exc:  # noqa: BLE001 — contained by design
                        self._background_task_errors += 1
                        self._last_background_error = f"{name}: {exc!r}"
                self._background_tasks_run += 1
                if obs.state.enabled:
                    _engine_instruments()["background_tasks"].inc()  # type: ignore[union-attr]
                run += 1
        return run

    @property
    def running(self) -> bool:
        with self._lifecycle_lock:
            return self._thread is not None

    # -- recommendations and feedback routing ---------------------------------

    def recommendation(self, client_id: str = "default") -> Recommendation:
        """The current shared recommendation, audited to ``client_id``."""
        with self._pump_lock:
            rec = Recommendation(
                recommended=self._tuner.recommend(),
                materialized=frozenset(self._materialized),
            )
        self._log(
            self._client(client_id),
            "recommendation",
            f"create={len(rec.to_create)} drop={len(rec.to_drop)}",
        )
        return rec

    def vote(
        self,
        client_id: str,
        f_plus: AbstractSet[Index],
        f_minus: AbstractSet[Index],
    ) -> FrozenSet[Index]:
        """Route explicit DBA votes from ``client_id`` to the shared core."""
        with self._pump_lock:
            # Validate before logging: a WAL record for a vote the core
            # then rejects would be replayed by every subsequent recovery
            # and fail there the same way — one bad client call must not
            # leave a durable poison pill (create/drop below follow the
            # same check-then-log order).
            if frozenset(f_plus) & frozenset(f_minus):
                raise ValueError("F+ and F- must be disjoint")
            if self._wal is not None:
                # The position pins the vote to the statement count it ran
                # at: recovery pumps exactly that far before re-applying,
                # so feedback lands on the same work-function state.
                self._wal.append(
                    "vote",
                    {
                        "client_id": client_id,
                        "position": self._statements_processed,
                        "plus": [ix.to_payload() for ix in sorted(f_plus)],
                        "minus": [ix.to_payload() for ix in sorted(f_minus)],
                    },
                )
            rec = self._tuner.feedback(frozenset(f_plus), frozenset(f_minus))
        self._log(
            self._client(client_id),
            "vote",
            "+{" + ", ".join(ix.name for ix in sorted(f_plus)) + "} "
            "-{" + ", ".join(ix.name for ix in sorted(f_minus)) + "}",
        )
        return rec

    def _note_adoption(self) -> None:  # holds: _pump_lock
        self._adoptions += 1
        self._last_adoption_position = self._statements_processed

    def create_index(self, client_id: str, index: Index) -> None:
        """``client_id`` materializes an index; WFIT learns via a +vote.

        The realized totWork series is charged the transition cost of
        building the index here — at the moment the DBA actually paid it.
        """
        with self._pump_lock:
            if index in self._materialized:
                raise ValueError(f"{index.name} is already materialized")
            if self._wal is not None:
                self._wal.append(
                    "materialize",
                    {
                        "client_id": client_id,
                        "position": self._statements_processed,
                        "action": "create",
                        "index": index.to_payload(),
                    },
                )
            before = frozenset(self._materialized)
            self._materialized.add(index)
            self._charge_realized_transition(
                self._transitions.delta(before, frozenset(self._materialized))
            )
            self._note_adoption()
            self._tuner.notify_materialized(
                created={index}, dropped=frozenset()
            )
        self._log(self._client(client_id), "create", index.name)

    def drop_index(self, client_id: str, index: Index) -> None:
        """``client_id`` drops an index; WFIT learns via a −vote."""
        with self._pump_lock:
            if index not in self._materialized:
                raise ValueError(f"{index.name} is not materialized")
            if self._wal is not None:
                self._wal.append(
                    "materialize",
                    {
                        "client_id": client_id,
                        "position": self._statements_processed,
                        "action": "drop",
                        "index": index.to_payload(),
                    },
                )
            before = frozenset(self._materialized)
            self._materialized.discard(index)
            self._charge_realized_transition(
                self._transitions.delta(before, frozenset(self._materialized))
            )
            self._note_adoption()
            self._tuner.notify_materialized(
                created=frozenset(), dropped={index}
            )
        self._log(self._client(client_id), "drop", index.name)

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
        δ(materialized, recommended) here.
        """
        client = self._client(client_id)
        with self._pump_lock:
            if self._wal is not None:
                # Adoption is deterministic given the position: the replayed
                # engine recomputes the same recommendation there, so only
                # the action itself needs logging.
                payload: Dict[str, object] = {
                    "client_id": client_id,
                    "position": self._statements_processed,
                    "action": "adopt",
                }
                if not lease:
                    payload["lease"] = False
                self._wal.append("materialize", payload)
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
        for index in created:
            self._log(client, "create", index.name)
        for index in dropped:
            self._log(client, "drop", index.name)
        return created, dropped

    # -- observability ---------------------------------------------------------

    def metrics(self) -> Dict[str, object]:
        """Aggregate engine metrics plus per-session counters.

        Per-session ``latency_p50_ms`` / ``latency_p95_ms`` are
        *window-relative*: they summarize the client's last
        ``latency_window`` (constructor knob, default 4096) in-core
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
        change). ``background_tasks`` accounts the deferred-task lane.
        The numeric counters are also exported on the process-wide
        :mod:`repro.obs` registry as ``repro_engine_*`` series.
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
                        "events": len(state.events),
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
                "background_tasks": {
                    "deferred": self._scheduler.tasks_deferred,
                    "queued": self._scheduler.task_depth(),
                    "run": self._background_tasks_run,
                    "errors": self._background_task_errors,
                    "last_error": self._last_background_error,
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
        base: Optional[Dict[str, object]] = None,
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
        ``snapshot_id``/``base`` are the durability layer's chaining
        inputs (see :meth:`repro.service.wal.Durability.checkpoint`):
        with a ``base`` full document, unchanged parts are elided into a
        delta.
        """
        from .snapshot import checkpoint_engine

        with self._pump_lock:
            if drain:
                self.pump()
            return checkpoint_engine(
                self, extra=extra, snapshot_id=snapshot_id, base=base
            )

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
        """Rebuild an engine from a durability directory (snapshot chain +
        WAL tail); returns ``(engine, report)``.

        The newest snapshot whose chain resolves is restored, then the
        WAL tail is replayed — submissions re-enter the queues (priority
        classes included), drained micro-batches re-form at their logged
        boundaries, votes and materializations re-apply at the statement
        positions they originally ran at; a torn final record is
        tolerated, mid-file corruption refuses with
        :class:`repro.service.wal.CorruptRecord`.
        Replayed submissions are left queued: pump (or attach a fresh
        WAL via :class:`repro.service.wal.Durability` first) to continue.
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
        single-client deployment (the legacy ``AdvisorSession`` shape)
        wants. When the engine's background thread is running, this still
        guarantees the statement has been analyzed on return.
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
    def statements_submitted(self) -> int:
        return self._engine._client(self._client_id).submitted

    @property
    def statements_processed(self) -> int:
        return self._engine._client(self._client_id).processed

    def history(self) -> Tuple[SessionEvent, ...]:
        return self._engine.history(self._client_id)
