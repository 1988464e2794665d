# reprolint: zone=deterministic
"""Checkpoint/restore for the tuning engine: versioned JSON documents.

The design goal (motivated by the consistent-snapshot literature for
main-memory systems) is that a checkpoint is taken *between* micro-batches
— never inside one — and captures everything needed to continue
step-identically:

* the WFIT core (partition, per-part work-function values, candidate
  statistics, universe U, partitioner RNG state) via
  :meth:`repro.core.wfit.WFIT.export_state`;
* the what-if optimizer's universe bit-assignment order
  (:meth:`repro.core.bitset.IndexUniverse.export_order`), so restored
  masks and cache layouts reproduce the original run exactly;
* the engine's materialized set, totWork accounting (recommended and
  realized), and each session's priority class and counters;
* the *pending queue* — statements submitted but not yet pumped at the
  snapshot point. They are serialized as SQL and re-submitted on
  restore, so a crash between submit and pump loses no work;
* the durability metadata: ``snapshot_id`` and the highest WAL sequence
  number the document covers (``wal_seq``).

Every document is self-contained: it restores on its own, with no base
snapshot to resolve. (Eliding parts unchanged since an earlier snapshot
never paid: every analyzed statement adds its cost to every
configuration of every part, so consecutive checkpoints almost never
share a part.)

Costs themselves are *not* serialized: they are deterministic functions of
``(statement, configuration)`` under the analytical cost model, so a fresh
optimizer over equivalent statistics re-derives them on demand — restore
needs statistics, not gigabytes of memoized plans.

Documents are plain JSON (floats round-trip exactly through Python's
``json``) with a top-level ``version``; :func:`restore_engine` accepts
exactly :data:`SNAPSHOT_VERSION` and rejects every other version up front
with a typed :class:`UnsupportedVersion` (still a ``ValueError``).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.wfit import WFIT
from ..db.index import Index
from ..optimizer.whatif import WhatIfOptimizer

__all__ = [
    "SNAPSHOT_VERSION",
    "BrokenChain",
    "CorruptSnapshot",
    "SnapshotError",
    "UnsupportedVersion",
    "checkpoint_engine",
    "restore_engine",
]

#: Format version of engine checkpoint documents, and the only version
#: :func:`restore_engine` accepts. Version 4 dropped delta documents: every
#: checkpoint is one self-contained snapshot.
SNAPSHOT_VERSION = 4


class SnapshotError(ValueError):
    """Base class for checkpoint load/restore failures.

    Subclasses ``ValueError`` so callers predating the hierarchy (which
    caught ``ValueError`` around :func:`restore_engine`) keep working.
    """


class UnsupportedVersion(SnapshotError):
    """The document's ``version`` is not one this build can restore."""


class CorruptSnapshot(SnapshotError):
    """The document is unreadable: bad JSON, not an object, or a
    version-4 document with missing or mistyped fields."""


class BrokenChain(SnapshotError):
    """Recovery would skip acknowledged history.

    Raised when the newest snapshot that restores is older than what the
    write-ahead log was rotated against (or the log itself has a hole),
    so replaying the surviving records would silently drop mutations that
    were acknowledged before the crash.
    """


def checkpoint_engine(
    engine,
    extra: Optional[Dict[str, object]] = None,
    *,
    snapshot_id: Optional[int] = None,
) -> Dict[str, object]:
    """Serialize ``engine`` between micro-batches.

    Prefer ``TuningEngine.checkpoint()``, which manages the writer lock
    and (by default) drains first. Statements still queued at the
    snapshot point — submitted concurrently with a draining checkpoint,
    or deliberately left queued by ``checkpoint(drain=False)`` — are
    serialized under ``"pending"`` in submission order and re-submitted
    by :func:`restore_engine`, so the restored engine analyzes exactly
    the statements the original would have. Each session's serialized
    ``submitted`` counter equals its ``processed`` count; replaying the
    pending list restores the original submission counts.
    """
    from ..query.parser import to_sql
    from .engine import _entry_payload

    with engine._pump_lock:
        # Client registration and the queue mutate under the ingest lock
        # (a concurrent first-ever submit inserts into the table);
        # snapshot both before iterating. Per-client processed counts and
        # cost shares only mutate under the pump lock we already hold. The WAL
        # checkpoint mark is captured in the same region as the queue: a
        # record is appended and its statement enqueued under one ingest-
        # lock acquisition, so ``wal_seq`` covers exactly the submissions
        # the ``pending`` list (plus processed history) accounts for —
        # and the mark's byte offset lets the later ``reset()`` rotate
        # out only this prefix, so a submit landing between this capture
        # and the rotation (its record has seq > wal_seq and sits past
        # the marked offset) survives in the log instead of being
        # truncated away unreplayed.
        with engine._ingest_lock:
            clients = sorted(engine._clients.items())
            # Each queued statement is encoded as the WAL logs a submission.
            pending = [
                _entry_payload(entry.client_id, entry.statement, entry.priority)
                for entry in engine._scheduler.entries()
            ]
            wal = engine._wal
            wal_seq = wal.checkpoint_mark() if wal is not None else 0
        document: Dict[str, object] = {
            "version": SNAPSHOT_VERSION,
            "snapshot_id": snapshot_id,
            "wal_seq": wal_seq,
            "batch_size": engine.batch_size,
            "tuner": engine.tuner.export_state(),
            "universe_order": [
                ix.to_payload()
                for ix in engine.optimizer.mask_universe.export_order()
            ],
            "materialized": [
                ix.to_payload() for ix in sorted(engine.materialized)
            ],
            "accounting": {
                "total_work": engine.total_work,
                "config": [
                    ix.to_payload() for ix in sorted(engine._accounting_config)
                ],
                "statements_processed": engine.statements_processed,
                "batches_processed": engine.batches_processed,
                # The realized (actual-adoption) totWork series. The
                # charged prefix and the one statement whose realized
                # cost is still open (deferred finalization — see
                # TuningEngine.realized_total_work) are serialized
                # separately so the restored engine finalizes it under
                # whatever the materialized set is *then*, exactly as the
                # uninterrupted run would have.
                "realized_work": engine._realized_work,
                "pending_realized_transition": engine._pending_transition,
                "pending_realized": (
                    None
                    if engine._pending_realized is None
                    else {
                        "client_id": engine._pending_realized[0],
                        "sql": to_sql(
                            engine._pending_realized[1], lossless=True
                        ),
                    }
                ),
                "adoption_changes": engine._adoptions,
                "last_adoption_position": engine._last_adoption_position,
            },
            "sessions": [
                {
                    "client_id": state.client_id,
                    "priority": state.priority,
                    "submitted": state.processed,
                    "processed": state.processed,
                    "recommended_work": state.recommended_work,
                    "realized_work": state.realized_work,
                }
                for _, state in clients
            ],
            "pending": pending,
        }
    if extra is not None:
        document["extra"] = extra
    return document


def restore_engine(
    document: Dict[str, object],
    optimizer: WhatIfOptimizer,
    transitions,
):
    """Rebuild a ``TuningEngine`` from a :func:`checkpoint_engine` document.

    ``optimizer`` must be freshly built over statistics equivalent to the
    original's; its mask universe is seeded with the checkpointed bit
    order before any statement flows through it. A document of another
    version raises :class:`UnsupportedVersion`; a version-4 document with
    a missing or mistyped field raises :class:`CorruptSnapshot`, so
    recovery skips it and falls back to an older snapshot.
    """
    version = document.get("version")
    if version != SNAPSHOT_VERSION:
        raise UnsupportedVersion(
            f"unsupported engine checkpoint version {version!r} "
            f"(supported: {SNAPSHOT_VERSION})"
        )
    try:
        return _restore(document, optimizer, transitions)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptSnapshot(
            f"malformed version-{SNAPSHOT_VERSION} engine checkpoint: {exc!r}"
        ) from exc


def _restore(
    document: Dict[str, object], optimizer: WhatIfOptimizer, transitions
):
    from .engine import TuningEngine, _decoded_entry

    optimizer.mask_universe.extend_order(
        Index.from_payload(payload) for payload in document["universe_order"]
    )

    # Construct over an empty materialized set so the constructor's interim
    # tuner is trivial (zero parts) — it is replaced by the restored WFIT
    # on the next line, and the materialized set is reinstated from the
    # document below.
    engine = TuningEngine(
        optimizer, transitions, batch_size=int(document["batch_size"])
    )
    engine._tuner = WFIT.restore_state(
        optimizer, transitions, document["tuner"]
    )
    engine._materialized = {
        Index.from_payload(p) for p in document["materialized"]
    }
    accounting = document["accounting"]
    engine._total_work = float(accounting["total_work"])
    engine._accounting_config = frozenset(
        Index.from_payload(p) for p in accounting["config"]
    )
    engine._statements_processed = int(accounting["statements_processed"])
    engine._batches_processed = int(accounting["batches_processed"])
    engine._realized_work = float(accounting["realized_work"])
    engine._pending_transition = float(
        accounting["pending_realized_transition"]
    )
    pending_realized = accounting["pending_realized"]
    if pending_realized is not None:
        from ..query.parser import parse_statement

        engine._pending_realized = (
            str(pending_realized["client_id"]),
            parse_statement(str(pending_realized["sql"])),
        )
    engine._adoptions = int(accounting["adoption_changes"])
    last_adoption = accounting["last_adoption_position"]
    engine._last_adoption_position = (
        None if last_adoption is None else int(last_adoption)
    )
    for item in document["sessions"]:
        state = engine._client(str(item["client_id"]))
        state.priority = str(item["priority"])
        state.submitted = int(item["submitted"])
        state.processed = int(item["processed"])
        state.recommended_work = float(item["recommended_work"])
        state.realized_work = float(item["realized_work"])
    # The pending queue re-enters un-analyzed, in submission order, through
    # the ingest step a WAL submission replays through: each entry keeps
    # its recorded class (an absent key means "normal"), never the session
    # default restored above, and the per-session submitted counters grow
    # past the serialized processed counts again.
    engine._submit(
        [_decoded_entry(item) for item in document["pending"]], "submit_many"
    )
    return engine
